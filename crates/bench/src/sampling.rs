//! SimPoint-style phase sampling: deterministic k-means phase clustering over
//! per-slice basic-block vectors, weighted combination of per-slice
//! statistics, and the `figures --sample` experiment driver.
//!
//! The full-length figure simulations are the dominant cost of a run; phase
//! sampling replaces each full run with a handful of *representative slices*:
//!
//! 1. [`bebop_trace::profile_slices`] partitions the recording into
//!    fixed-length slices and summarises each as a projected, L1-normalised
//!    BBV;
//! 2. [`cluster_slices`] groups the slices into phases with an in-tree,
//!    dependency-free k-means and picks the slice closest to each centroid as
//!    the phase representative, weighted by the phase's committed-µop share;
//! 3. [`bebop::run_slice`] simulates each representative (with a warm-up
//!    prefix that is simulated but not measured), fanned out over
//!    [`par::par_map`];
//! 4. [`combine_weighted`] folds the per-phase statistics into weighted
//!    accuracy / coverage / IPC with per-benchmark confidence intervals.
//!
//! Sampling is a lossy estimator, so every piece here is engineered for two
//! properties the `integration_sampling` differential harness locks down:
//! *determinism* (identical phases, weights and statistics across thread
//! counts and re-runs — seeded init from workload content, fixed iteration
//! order, no map-ordering dependence) and *declared error bounds* (the
//! reported interval must contain the full-run golden; see
//! [`SampledMetrics`]).

use crate::trace_set::{TraceCachePolicy, TraceSet};
use bebop::{par, run_slice, PredictorKind, SimStats, TraceBuffer, TraceStore};
use bebop_trace::{fnv1a, profile_slices, SliceBbv, WorkloadSpec, BBV_DIMS, FNV_OFFSET_BASIS};
use bebop_uarch::PipelineConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of a phase-sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Slice length in committed µ-ops.
    pub slice_uops: u64,
    /// Maximum number of phases (k of the k-means). The effective phase count
    /// can be lower: it is capped at the slice count, and empty clusters are
    /// dropped.
    pub max_phases: usize,
    /// Warm-up µ-ops simulated (but not measured) before each representative
    /// slice, clamped at the recording start.
    pub warmup_uops: u64,
}

impl SamplingConfig {
    /// The default geometry for a full-run budget of `uops`: 50 slices of
    /// `uops/50`, up to 8 phases, detailed warm-up of a quarter slice (the
    /// heavy lifting is the functional warming of the whole prefix, which
    /// does not count against the detailed budget). For `uops ≥ 25 000`,
    /// where the slice is `uops/50`, the sampled simulation costs at worst
    /// `8 × (uops/50) × 1.25 = uops/5` detailed committed µ-ops per
    /// benchmark — the ≤ 1/5 budget contract the acceptance tests assert —
    /// and typically less (fewer phases, shorter tail slice). Below 25 000
    /// µ-ops the 500-µop slice floor takes over and the bound does not hold:
    /// up to 8 slices of 500 plus warm-up, i.e. most of a 5 000-µop run.
    pub fn for_budget(uops: u64) -> Self {
        let slice_uops = (uops / 50).max(500).min(uops.max(1));
        SamplingConfig {
            slice_uops,
            max_phases: 8,
            warmup_uops: slice_uops / 4,
        }
    }
}

/// One phase of a clustered recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Index (into the slice table) of the representative slice: the member
    /// closest to the phase centroid, lowest index on ties.
    pub representative: usize,
    /// Committed-µop share of the phase's members (all phase weights of one
    /// recording sum to 1.0 within float rounding).
    pub weight: f64,
    /// Committed µ-ops across the phase's members.
    pub committed: u64,
    /// Number of member slices.
    pub members: usize,
}

/// The result of [`cluster_slices`]: a phase table plus the slice → phase
/// assignment that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseClustering {
    /// Phase of each slice, indexed like the input slice table.
    pub assignments: Vec<usize>,
    /// The phases, in stable (centroid-index) order.
    pub phases: Vec<Phase>,
}

/// Lloyd iterations before the clusterer settles for the current assignment
/// (it converges in a handful of iterations on real slice tables; the cap
/// bounds adversarial inputs).
const MAX_KMEANS_ITERS: usize = 64;

/// Cluster-feature dimensionality: the projected BBV plus one slice-position
/// feature.
const FEATURE_DIMS: usize = BBV_DIMS + 1;

/// Weight of the position feature relative to the L1-normalised BBV (whose
/// pairwise Euclidean distances top out around √2). A phase is *similar code
/// in a similar epoch*: without the position term, a cold early slice can be
/// assigned to a late representative that is measured fully warmed, and the
/// weighted estimate inherits a warm-state bias the golden full run never
/// had. Keeping phases time-localised makes functional warm-up reproduce the
/// state each phase's members actually saw.
const POSITION_WEIGHT: f64 = 4.0;

/// The feature vector of a slice: its BBV plus the weighted normalised
/// position of the slice in the recording.
fn features(s: &SliceBbv, count: usize) -> [f64; FEATURE_DIMS] {
    let mut f = [0.0f64; FEATURE_DIMS];
    f[..BBV_DIMS].copy_from_slice(&s.vector);
    if count > 1 {
        f[BBV_DIMS] = POSITION_WEIGHT * s.index as f64 / (count - 1) as f64;
    }
    f
}

/// Squared Euclidean distance in feature space.
fn feature_distance_sq(a: &[f64; FEATURE_DIMS], b: &[f64; FEATURE_DIMS]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Groups `slices` into at most `k` phases with a deterministic k-means.
///
/// Determinism contract (the `integration_sampling` harness asserts it):
///
/// * **Seeded init** — the k initial centroids are distinct slices drawn with
///   [`SmallRng`] from `seed`. Callers derive the seed from workload
///   *content* (see [`workload_seed`]), so clustering one benchmark is
///   invariant under permutations of the benchmark population.
/// * **Fixed iteration order** — slices are assigned in index order, ties go
///   to the lowest centroid index, centroids are recomputed in index order;
///   no hash-map iteration anywhere.
/// * **Stable degenerate cases** — `k >= #slices` yields one singleton phase
///   per slice; clusters that lose all members keep their previous centroid
///   and are dropped from the phase table only at the end.
///
/// # Panics
///
/// Panics if `k` is zero or `slices` is empty.
pub fn cluster_slices(slices: &[SliceBbv], k: usize, seed: u64) -> PhaseClustering {
    assert!(k > 0, "at least one phase is required");
    assert!(!slices.is_empty(), "cannot cluster zero slices");
    let k = k.min(slices.len());
    let feats: Vec<[f64; FEATURE_DIMS]> =
        slices.iter().map(|s| features(s, slices.len())).collect();

    // Seeded init: k distinct slice indices as the initial centroids.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    while picked.len() < k {
        let c = rng.gen_range(0..slices.len());
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    let mut centroids: Vec<[f64; FEATURE_DIMS]> = picked.iter().map(|&i| feats[i]).collect();

    let mut assignments = vec![0usize; slices.len()];
    for _ in 0..MAX_KMEANS_ITERS {
        // Assign, in slice-index order; ties to the lowest centroid index.
        let mut changed = false;
        for (i, f) in feats.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = feature_distance_sq(f, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Recompute centroids as member means, in index order; an empty
        // cluster keeps its previous centroid.
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let mut sum = [0.0f64; FEATURE_DIMS];
            let mut n = 0u64;
            for (i, f) in feats.iter().enumerate() {
                if assignments[i] == c {
                    for (acc, v) in sum.iter_mut().zip(f) {
                        *acc += v;
                    }
                    n += 1;
                }
            }
            if n > 0 {
                for acc in sum.iter_mut() {
                    *acc /= n as f64;
                }
                *centroid = sum;
            }
        }
    }

    // Phase table: per cluster, representative (member nearest the centroid,
    // lowest index on ties) and committed-µop weight. Empty clusters vanish;
    // assignments are re-numbered to the surviving phases.
    let total_committed: u64 = slices.iter().map(|s| s.committed).sum();
    let mut phases = Vec::with_capacity(k);
    let mut renumber = vec![usize::MAX; k];
    for c in 0..k {
        let mut representative = None;
        let mut best_d = f64::INFINITY;
        let mut committed = 0u64;
        let mut members = 0usize;
        for (i, s) in slices.iter().enumerate() {
            if assignments[i] != c {
                continue;
            }
            committed += s.committed;
            members += 1;
            let d = feature_distance_sq(&feats[i], &centroids[c]);
            if d < best_d {
                best_d = d;
                representative = Some(i);
            }
        }
        if let Some(rep) = representative {
            renumber[c] = phases.len();
            phases.push(Phase {
                representative: rep,
                weight: committed as f64 / total_committed as f64,
                committed,
                members,
            });
        }
    }
    for a in assignments.iter_mut() {
        // INVARIANT: every slice is assigned to some cluster, and a cluster
        // with at least one member always produced a phase above.
        assert!(
            renumber[*a] != usize::MAX,
            "assigned cluster lost its phase"
        );
        *a = renumber[*a];
    }
    PhaseClustering {
        assignments,
        phases,
    }
}

/// The clustering seed of a workload, derived from its *name* (stable
/// content, not list position) so the phase table of one benchmark is
/// invariant under permutations of the benchmark population.
pub fn workload_seed(spec: &WorkloadSpec) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, spec.name.as_bytes())
}

/// Declared absolute error bound (confidence-interval floor) on sampled
/// accuracy. The reported CI half-width is never below this.
pub const ACCURACY_BOUND_FLOOR: f64 = 0.05;

/// Declared absolute error bound (confidence-interval floor) on sampled
/// coverage. Wider than the accuracy floor: coverage is the slowest-mixing
/// metric under sampling because confidence counters ramp over the whole
/// run, so a representative slice sees a ramp stage its phase siblings do
/// not. Calibrated empirically against 200 K-µop full-run goldens across
/// all nine predictor kinds (worst observed absolute error ≈ 0.13 for the
/// stride family on 171.swim / 401.bzip2).
pub const COVERAGE_BOUND_FLOOR: f64 = 0.15;

/// Declared relative error bound (confidence-interval floor) on sampled IPC.
pub const IPC_RELATIVE_BOUND_FLOOR: f64 = 0.10;

/// Inflation applied to the between-phase dispersion term of every declared
/// CI. The dispersion measures only the spread *between* phase
/// representatives; the error a sampled estimate actually commits also
/// includes the *within*-phase spread (each phase is summarised by a single
/// representative slice), which the sampler never observes. Differential
/// calibration against 200 K-µop full-run goldens shows the within-phase
/// component is of the same order as the between-phase one for short
/// slices (worst case: IPC on 255.vortex, where the raw dispersion
/// half-width covered only ~74 % of the realised error), so the declared
/// half-width inflates the dispersion term accordingly.
pub const WITHIN_PHASE_INFLATION: f64 = 1.5;

/// Weighted sampled metrics of one benchmark, with per-metric confidence
/// intervals.
///
/// The point estimates are phase-weight means; the half-widths follow the
/// error-bound policy documented in `docs/ARCHITECTURE.md`: a weighted
/// between-phase dispersion term `1.96·sqrt(Σwᵢ(mᵢ−m̂)²·Σwᵢ²)` (the normal
/// approximation of a weighted-mean standard error, treating phases as the
/// sampling unit), inflated by [`WITHIN_PHASE_INFLATION`] for the
/// unobserved within-phase spread, floored at [`ACCURACY_BOUND_FLOOR`] /
/// [`COVERAGE_BOUND_FLOOR`] / [`IPC_RELATIVE_BOUND_FLOOR`] so a degenerate
/// single-phase clustering still declares an honest minimum bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledMetrics {
    /// Weighted value-prediction accuracy (correct / predicted).
    pub accuracy: f64,
    /// CI half-width of the accuracy.
    pub accuracy_ci: f64,
    /// Weighted value-prediction coverage (correct / eligible).
    pub coverage: f64,
    /// CI half-width of the coverage.
    pub coverage_ci: f64,
    /// Weighted µ-op IPC.
    pub uop_ipc: f64,
    /// CI half-width of the IPC.
    pub uop_ipc_ci: f64,
}

impl SampledMetrics {
    /// The violated bounds (empty = golden inside every declared interval)
    /// of this sampled estimate against a full-run golden. This is the exact
    /// check the differential harness and CI smoke step run.
    pub fn bound_violations(&self, golden: &SimStats) -> Vec<String> {
        let mut v = Vec::new();
        let acc = golden.vp.accuracy();
        if (self.accuracy - acc).abs() > self.accuracy_ci {
            v.push(format!(
                "accuracy {:.4} vs golden {acc:.4} outside ±{:.4}",
                self.accuracy, self.accuracy_ci
            ));
        }
        let cov = golden.vp.coverage();
        if (self.coverage - cov).abs() > self.coverage_ci {
            v.push(format!(
                "coverage {:.4} vs golden {cov:.4} outside ±{:.4}",
                self.coverage, self.coverage_ci
            ));
        }
        let ipc = golden.uop_ipc();
        if (self.uop_ipc - ipc).abs() > self.uop_ipc_ci {
            v.push(format!(
                "IPC {:.4} vs golden {ipc:.4} outside ±{:.4}",
                self.uop_ipc, self.uop_ipc_ci
            ));
        }
        v
    }
}

/// Folds per-phase statistics into weighted metrics with confidence
/// intervals. `phases` pairs each phase's measured [`SimStats`] with its
/// weight; weights are expected to sum to ~1 (the clusterer guarantees it).
///
/// # Panics
///
/// Panics if `phases` is empty.
pub fn combine_weighted(phases: &[(SimStats, f64)]) -> SampledMetrics {
    assert!(!phases.is_empty(), "cannot combine zero phases");
    // A full-run metric `Σnum / Σden` is estimated as a ratio of weighted
    // *rates* (counts per committed µ-op, scaled by each phase's µ-op
    // share), not as a weighted mean of per-window ratios: windows where the
    // denominator is thin (e.g. a cold phase that makes no predictions)
    // contribute proportionally little, exactly as they do in the golden
    // run, instead of dragging the mean. The dispersion term re-normalises
    // the weights by denominator density for the same reason.
    let ratio_metric =
        |num: &dyn Fn(&SimStats) -> f64, den: &dyn Fn(&SimStats) -> f64| -> (f64, f64) {
            let rate = |s: &SimStats, f: &dyn Fn(&SimStats) -> f64| {
                if s.uops == 0 {
                    0.0
                } else {
                    f(s) / s.uops as f64
                }
            };
            let num_sum: f64 = phases.iter().map(|(s, w)| w * rate(s, num)).sum();
            let den_sum: f64 = phases.iter().map(|(s, w)| w * rate(s, den)).sum();
            if den_sum <= 0.0 {
                return (0.0, 0.0);
            }
            let mean = num_sum / den_sum;
            let dens: Vec<f64> = phases
                .iter()
                .map(|(s, w)| w * rate(s, den) / den_sum)
                .collect();
            let var: f64 = phases
                .iter()
                .zip(&dens)
                .filter(|((s, _), _)| den(s) > 0.0)
                .map(|((s, _), v)| {
                    let d = num(s) / den(s) - mean;
                    v * d * d
                })
                .sum();
            let v_sq: f64 = dens.iter().map(|v| v * v).sum();
            (mean, WITHIN_PHASE_INFLATION * 1.96 * (var * v_sq).sqrt())
        };
    let (accuracy, acc_disp) = ratio_metric(&|s| s.vp.correct as f64, &|s| s.vp.predicted as f64);
    let (coverage, cov_disp) = ratio_metric(&|s| s.vp.correct as f64, &|s| s.vp.eligible as f64);
    // IPC combines in CPI space: a full run's IPC is total µ-ops over total
    // cycles, i.e. the µop-weighted *harmonic* mean of per-window IPCs.
    // Averaging CPIs linearly reproduces that; averaging IPCs would
    // systematically overestimate.
    let (cpi, cpi_disp) = ratio_metric(&|s| s.cycles as f64, &|s| s.uops as f64);
    let uop_ipc = if cpi > 0.0 { 1.0 / cpi } else { 0.0 };
    let ipc_disp = if cpi > 0.0 {
        uop_ipc * (cpi_disp / cpi)
    } else {
        0.0
    };
    SampledMetrics {
        accuracy,
        accuracy_ci: acc_disp.max(ACCURACY_BOUND_FLOOR),
        coverage,
        coverage_ci: cov_disp.max(COVERAGE_BOUND_FLOOR),
        uop_ipc,
        uop_ipc_ci: ipc_disp.max(IPC_RELATIVE_BOUND_FLOOR * uop_ipc.abs()),
    }
}

/// One benchmark's row of the phase-sampling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRow {
    /// Benchmark name.
    pub name: String,
    /// Number of profiled slices.
    pub slices: usize,
    /// Number of (non-empty) phases.
    pub phases: usize,
    /// Phase weights, in phase order (sum to ~1).
    pub weights: Vec<f64>,
    /// Per-phase measured statistics, in phase order.
    pub per_phase: Vec<SimStats>,
    /// Weighted sampled metrics with confidence intervals.
    pub sampled: SampledMetrics,
    /// Committed µ-ops actually simulated for this benchmark (measurement
    /// windows plus warm-up prefixes).
    pub sampled_uops: u64,
}

/// The outcome of [`run_sampled_with`].
#[derive(Debug, Clone)]
pub struct SampledOutcome {
    /// Per-benchmark rows, in input order.
    pub rows: Vec<SampledRow>,
    /// Committed µ-ops simulated across every representative (warm-up
    /// included) — the cost the sampler actually paid.
    pub simulated_uops: u64,
    /// Committed µ-ops functionally warmed before each representative's
    /// detailed warm-up, summed over every representative — the cost
    /// `simulated_uops` leaves out.
    pub warm_uops: u64,
    /// Committed µ-ops the equivalent full runs would have simulated.
    pub full_uops: u64,
    /// Trace-population accounting: recordings loaded from the persistent
    /// store (no generation paid).
    pub loaded_traces: usize,
    /// Recordings generated this run (store misses or no store attached).
    pub recorded_traces: usize,
    /// µ-ops generated this run (0 on a fully warm store).
    pub generated_uops: u64,
}

/// The phase-sampling experiment behind `figures --sample`, parameterised on
/// pipeline and predictor: records (or store-loads) every workload once,
/// profiles + clusters each recording, simulates one representative slice
/// per phase — the whole (benchmark × phase) product fanned out over
/// [`par::par_map`] — and folds the results into weighted per-benchmark
/// metrics.
pub fn run_sampled_with(
    specs: &[WorkloadSpec],
    uops: u64,
    cfg: &SamplingConfig,
    pipeline: &PipelineConfig,
    predictor: &PredictorKind,
    policy: &TraceCachePolicy,
    store: Option<&TraceStore>,
) -> SampledOutcome {
    assert!(
        policy.enabled,
        "phase sampling needs materialised recordings; `--no-trace-cache` cannot stream them"
    );
    // Record (or load) every workload's full-length trace once, fanned out.
    let set = TraceSet::build_with_store(specs, uops, policy, store);
    let buffers: Vec<&TraceBuffer> = (0..set.len())
        // INVARIANT: the policy is enabled (asserted above), so every
        // workload of the set is recorded.
        .map(|i| set.recording(i).expect("an enabled policy records"))
        .collect();

    // Profile + cluster each recording (cheap relative to simulation; done
    // in input order, seeded by workload content — see `cluster_slices` for
    // the determinism contract).
    let clusterings: Vec<(Vec<SliceBbv>, PhaseClustering)> = specs
        .iter()
        .zip(&buffers)
        .map(|(spec, buf)| {
            let slices = profile_slices(buf, cfg.slice_uops);
            let clustering = cluster_slices(&slices, cfg.max_phases, workload_seed(spec));
            (slices, clustering)
        })
        .collect();

    // One flat (benchmark × phase) task list over the shared recordings.
    let tasks: Vec<(usize, usize)> = clusterings
        .iter()
        .enumerate()
        .flat_map(|(i, (_, c))| (0..c.phases.len()).map(move |p| (i, p)))
        .collect();
    let phase_stats: Vec<SimStats> = par::par_map(&tasks, |&(i, p)| {
        let (slices, clustering) = &clusterings[i];
        let rep = &slices[clustering.phases[p].representative];
        run_slice(
            buffers[i],
            pipeline,
            predictor,
            rep.start,
            rep.end,
            cfg.warmup_uops,
        )
        // INVARIANT: `profile_slices` produces only valid slice windows
        // (committed starts, in-bounds tiling of the recording).
        .expect("profiled slices are valid replay windows")
    });

    let mut rows = Vec::with_capacity(specs.len());
    let mut task_i = 0usize;
    let mut simulated_uops = 0u64;
    let mut warm_uops = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let (slices, clustering) = &clusterings[i];
        let per_phase: Vec<SimStats> =
            phase_stats[task_i..task_i + clustering.phases.len()].to_vec();
        task_i += clustering.phases.len();
        let weighted: Vec<(SimStats, f64)> = per_phase
            .iter()
            .copied()
            .zip(clustering.phases.iter().map(|p| p.weight))
            .collect();
        let sampled = combine_weighted(&weighted);
        let mut sampled_uops = 0u64;
        for (phase, stats) in clustering.phases.iter().zip(&per_phase) {
            let rep = &slices[phase.representative];
            let (warm_start, warm) = buffers[i].warmup_start(rep.start, cfg.warmup_uops);
            sampled_uops += stats.uops + warm;
            warm_uops += buffers[i].warmup_start(warm_start, u64::MAX).1;
        }
        simulated_uops += sampled_uops;
        rows.push(SampledRow {
            name: spec.name.clone(),
            slices: slices.len(),
            phases: clustering.phases.len(),
            weights: clustering.phases.iter().map(|p| p.weight).collect(),
            per_phase,
            sampled,
            sampled_uops,
        });
    }
    SampledOutcome {
        rows,
        simulated_uops,
        warm_uops,
        full_uops: specs.len() as u64 * uops,
        loaded_traces: set.loaded_count(),
        recorded_traces: set.cached_count() - set.loaded_count(),
        generated_uops: set.generated_uops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_slices(n: usize) -> Vec<SliceBbv> {
        let buf = TraceBuffer::record(&WorkloadSpec::named_demo("sampling-unit"), (n as u64) * 500);
        profile_slices(&buf, 500)
    }

    #[test]
    fn clustering_is_deterministic_and_weights_sum_to_one() {
        let slices = demo_slices(12);
        let a = cluster_slices(&slices, 4, 42);
        let b = cluster_slices(&slices, 4, 42);
        assert_eq!(a, b);
        let total: f64 = a.phases.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum {total}");
        assert_eq!(a.assignments.len(), slices.len());
        let members: usize = a.phases.iter().map(|p| p.members).sum();
        assert_eq!(members, slices.len());
    }

    #[test]
    fn k_at_least_slice_count_gives_singleton_phases() {
        let slices = demo_slices(3);
        let c = cluster_slices(&slices, 10, 7);
        assert!(c.phases.len() <= 3);
        let members: usize = c.phases.iter().map(|p| p.members).sum();
        assert_eq!(members, 3);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // nested stats are easiest to build by mutation
    fn combine_weighted_single_phase_floors_the_bounds() {
        let mut s = SimStats::default();
        s.uops = 1_000;
        s.cycles = 500;
        s.vp.eligible = 400;
        s.vp.predicted = 200;
        s.vp.correct = 180;
        let m = combine_weighted(&[(s, 1.0)]);
        assert!((m.accuracy - 0.9).abs() < 1e-12);
        assert!((m.coverage - 0.45).abs() < 1e-12);
        assert!((m.uop_ipc - 2.0).abs() < 1e-12);
        assert_eq!(m.accuracy_ci, ACCURACY_BOUND_FLOOR);
        assert_eq!(m.coverage_ci, COVERAGE_BOUND_FLOOR);
        assert!((m.uop_ipc_ci - IPC_RELATIVE_BOUND_FLOOR * 2.0).abs() < 1e-12);
        assert!(m.bound_violations(&s).is_empty());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // nested stats are easiest to build by mutation
    fn bound_violations_detects_out_of_interval_goldens() {
        let mut near = SimStats::default();
        near.uops = 100;
        near.cycles = 50;
        let m = combine_weighted(&[(near, 1.0)]);
        let mut far = near;
        far.vp.eligible = 1_000;
        far.vp.predicted = 1_000;
        far.vp.correct = 1_000;
        far.cycles = 10;
        assert!(!m.bound_violations(&far).is_empty());
    }

    #[test]
    fn run_sampled_simulates_a_fraction_of_the_full_budget() {
        let specs = vec![WorkloadSpec::named_demo("sampling-run")];
        let uops = 25_000;
        let out = run_sampled_with(
            &specs,
            uops,
            &SamplingConfig::for_budget(uops),
            &PipelineConfig::baseline_vp_6_60(),
            &PredictorKind::DVtage,
            &TraceCachePolicy::default(),
            None,
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.full_uops, uops);
        assert!(
            out.simulated_uops * 5 <= out.full_uops,
            "sampled {} not within 1/5 of {}",
            out.simulated_uops,
            out.full_uops
        );
        assert_eq!(out.loaded_traces, 0);
        assert_eq!(out.recorded_traces, 1);
        assert_eq!(out.generated_uops, uops);
        let row = &out.rows[0];
        assert_eq!(row.slices, 50);
        assert!(row.phases >= 1 && row.phases <= 8);
        assert!((row.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
