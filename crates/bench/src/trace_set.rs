//! Shared trace recordings for config sweeps.
//!
//! A figure experiment simulates many (pipeline, predictor) configurations over
//! the *same* workload population. A [`TraceSet`] records each workload's µ-op
//! stream into a [`TraceBuffer`] exactly once — fanned out across cores — and
//! then hands every simulation a borrowed [`UopSource`], so a sweep of `k`
//! configurations pays trace generation once instead of `k` times, and all
//! worker threads replay the same shared, read-only buffers.
//!
//! Each 200K-µop trace costs roughly 6–7 MiB (the structure-of-arrays lanes
//! of [`TraceBuffer::footprint_bytes`]; the full 36-benchmark population is
//! about a quarter of a GiB). Runs on memory-constrained machines can disable
//! the cache with a [`TraceCachePolicy`] (`--no-trace-cache`), in which case
//! every workload streams live generation — results are bit-identical either
//! way, only the cost moves.

//! With a persistent [`TraceStore`] attached ([`TraceSet::build_with_store`],
//! the `--trace-dir` flag), recordings are additionally keyed and cached *on
//! disk*: a build first tries to load each workload's serialised lanes and
//! only generates (then persists) on a miss, so a second run of the same
//! (spec, µ-op budget) population generates zero µ-ops. That build is how
//! every harness mode gets its recordings: the `--all` experiments,
//! `--wrong-path`, `--sample` ([`crate::sampling::run_sampled_with`]) and
//! `--sweep` ([`crate::sweep::run_sweep_jobs`]). Each workload goes through
//! [`TraceStore::load_or_record`], so they share one failure policy: a save
//! is retried with backoff, and one that still fails is logged and counted
//! ([`TraceStore::unsaved`]) while the run continues from memory.

use bebop::{par, UopSource, WorkloadSpec};
use bebop_trace::{TraceBuffer, TraceStore};

/// Whether a [`TraceSet`] records traces at all.
#[derive(Debug, Clone)]
pub struct TraceCachePolicy {
    /// When false, nothing is recorded and every source streams live.
    pub enabled: bool,
}

impl Default for TraceCachePolicy {
    fn default() -> Self {
        TraceCachePolicy { enabled: true }
    }
}

impl TraceCachePolicy {
    /// The policy selected by `--no-trace-cache`: stream everything.
    pub fn disabled() -> Self {
        TraceCachePolicy { enabled: false }
    }
}

struct TraceSetEntry {
    spec: WorkloadSpec,
    buf: Option<TraceBuffer>,
}

impl std::fmt::Debug for TraceSetEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSetEntry")
            .field("spec", &self.spec.name)
            .field("cached", &self.buf.is_some())
            .finish()
    }
}

/// A workload population with per-workload trace recordings (where the cache
/// policy allows), handing out [`UopSource`]s for simulations.
#[derive(Debug)]
pub struct TraceSet {
    uops: u64,
    entries: Vec<TraceSetEntry>,
    /// µ-ops generated *live* into recordings during the build (store hits
    /// load their lanes from disk and generate nothing).
    generated: u64,
    /// Recordings loaded from the persistent store during the build.
    loaded: usize,
}

impl TraceSet {
    /// Records up to `uops` µ-ops per workload under `policy`, fanning the
    /// recordings out across cores with [`par::par_map`].
    pub fn build(specs: &[WorkloadSpec], uops: u64, policy: &TraceCachePolicy) -> Self {
        Self::build_with_store(specs, uops, policy, None)
    }

    /// [`TraceSet::build`] with an optional persistent [`TraceStore`]: each
    /// recording goes through [`TraceStore::load_or_record`], so it is looked
    /// up on disk and only generated (then saved, with retries) on a miss. A
    /// warm store turns the whole build into deserialisation:
    /// [`TraceSet::generated_uops`] reports zero.
    pub fn build_with_store(
        specs: &[WorkloadSpec],
        uops: u64,
        policy: &TraceCachePolicy,
        store: Option<&TraceStore>,
    ) -> Self {
        if !policy.enabled {
            return Self::streaming(specs);
        }
        let recorded = par::par_map(specs, |spec| match store {
            Some(st) => st.load_or_record(spec, uops),
            None => (TraceBuffer::record(spec, uops), false),
        });
        let loaded = recorded
            .iter()
            .filter(|(_, was_loaded)| *was_loaded)
            .count();
        let generated = recorded
            .iter()
            .filter(|(_, was_loaded)| !was_loaded)
            .map(|(buf, _)| buf.len() as u64)
            .sum();
        let entries = specs
            .iter()
            .zip(recorded)
            .map(|(spec, (buf, _))| TraceSetEntry {
                spec: spec.clone(),
                buf: Some(buf),
            })
            .collect();
        TraceSet {
            uops,
            entries,
            generated,
            loaded,
        }
    }

    /// A set with no recordings: every source streams live generation.
    pub fn streaming(specs: &[WorkloadSpec]) -> Self {
        TraceSet {
            uops: 0,
            entries: specs
                .iter()
                .map(|spec| TraceSetEntry {
                    spec: spec.clone(),
                    buf: None,
                })
                .collect(),
            generated: 0,
            loaded: 0,
        }
    }

    /// Number of workloads in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the set holds no workloads.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The benchmark name of workload `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.entries[i].spec.name
    }

    /// The µ-op source for workload `i`: a replay of the shared recording when
    /// one exists, live generation otherwise.
    pub fn source(&self, i: usize) -> UopSource<'_> {
        match &self.entries[i].buf {
            Some(buf) => UopSource::Replay(buf),
            None => UopSource::Live(&self.entries[i].spec),
        }
    }

    /// The recording of workload `i`, or `None` when the set streams it.
    pub fn recording(&self, i: usize) -> Option<&TraceBuffer> {
        self.entries[i].buf.as_ref()
    }

    /// Number of workloads with a recorded trace.
    pub fn cached_count(&self) -> usize {
        self.entries.iter().filter(|e| e.buf.is_some()).count()
    }

    /// Total heap footprint of the recordings, in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| e.buf.as_ref())
            .map(|b| b.footprint_bytes() as u64)
            .sum()
    }

    /// Total µ-ops materialised into recordings when the set was built —
    /// generated live or loaded from the persistent store (the one-time cost
    /// the replay fast path amortises).
    pub fn materialised_uops(&self) -> u64 {
        self.cached_count() as u64 * self.uops
    }

    /// Total µ-ops generated *live* into recordings when the set was built,
    /// wrong-path µ-ops included. Recordings loaded from a warm
    /// [`TraceStore`] generate nothing, so a fully warm build reports zero
    /// here.
    pub fn generated_uops(&self) -> u64 {
        self.generated
    }

    /// Number of recordings loaded from the persistent store (store hits).
    pub fn loaded_count(&self) -> usize {
        self.loaded
    }

    /// Asserts that every recorded trace covers a `max_uops` simulation.
    ///
    /// A cursor over a too-short recording would exhaust early and silently
    /// commit fewer µ-ops than the live path; the experiment runners call this
    /// so a budget/recording mismatch fails loudly instead.
    ///
    /// # Panics
    ///
    /// Panics if the set holds recordings shorter than `max_uops`.
    pub fn assert_covers(&self, max_uops: u64) {
        assert!(
            self.cached_count() == 0 || self.uops >= max_uops,
            "trace set was recorded with {} uops per workload but the run asks for {max_uops}",
            self.uops
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bebop::{run_source, PipelineConfig, PredictorKind};

    fn tiny_specs() -> Vec<WorkloadSpec> {
        ["ts-a", "ts-b", "ts-c"]
            .iter()
            .map(|n| WorkloadSpec::named_demo(*n))
            .collect()
    }

    #[test]
    fn full_cache_records_every_workload() {
        let specs = tiny_specs();
        let set = TraceSet::build(&specs, 2_000, &TraceCachePolicy::default());
        assert_eq!(set.len(), 3);
        assert_eq!(set.cached_count(), 3);
        assert_eq!(set.generated_uops(), 6_000);
        assert!(set.footprint_bytes() > 0);
        assert!(matches!(set.source(0), UopSource::Replay(_)));
    }

    #[test]
    fn disabled_cache_streams_everything() {
        let specs = tiny_specs();
        let set = TraceSet::build(&specs, 2_000, &TraceCachePolicy::disabled());
        assert_eq!(set.cached_count(), 0);
        assert_eq!(set.footprint_bytes(), 0);
        assert_eq!(set.generated_uops(), 0);
        assert!(matches!(set.source(0), UopSource::Live(_)));
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bebop-trace-set-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_build_generates_zero_uops_and_simulates_identically() {
        let dir = store_dir("warm");
        let store = TraceStore::open(&dir).expect("open store");
        let specs = tiny_specs();

        let cold =
            TraceSet::build_with_store(&specs, 2_500, &TraceCachePolicy::default(), Some(&store));
        assert_eq!(cold.cached_count(), 3);
        assert_eq!(cold.generated_uops(), 3 * 2_500);
        assert_eq!(cold.loaded_count(), 0);
        assert_eq!(store.misses(), 3);

        let warm =
            TraceSet::build_with_store(&specs, 2_500, &TraceCachePolicy::default(), Some(&store));
        assert_eq!(warm.cached_count(), 3);
        assert_eq!(warm.generated_uops(), 0, "warm build must not generate");
        assert_eq!(warm.loaded_count(), 3);
        assert_eq!(warm.materialised_uops(), 3 * 2_500);
        assert_eq!(store.hits(), 3);

        let plain = TraceSet::build(&specs, 2_500, &TraceCachePolicy::default());
        for i in 0..specs.len() {
            let a = run_source(
                warm.source(i),
                &PipelineConfig::eole_4_60(),
                &PredictorKind::DVtage,
                2_500,
            );
            let b = run_source(
                plain.source(i),
                &PipelineConfig::eole_4_60(),
                &PredictorKind::DVtage,
                2_500,
            );
            assert_eq!(a, b, "store-loaded trace diverged for {}", warm.name(i));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_and_streaming_sources_simulate_identically() {
        let specs = tiny_specs();
        let cached = TraceSet::build(&specs, 3_000, &TraceCachePolicy::default());
        let streaming = TraceSet::streaming(&specs);
        for i in 0..specs.len() {
            let a = run_source(
                cached.source(i),
                &PipelineConfig::eole_4_60(),
                &PredictorKind::DVtage,
                3_000,
            );
            let b = run_source(
                streaming.source(i),
                &PipelineConfig::eole_4_60(),
                &PredictorKind::DVtage,
                3_000,
            );
            assert_eq!(a, b, "replay diverged for {}", cached.name(i));
        }
    }
}
