//! Pipeline configuration (Table I of the paper).

/// Functional-unit pool sizes and latencies (Table I: 4 ALU (1c), 1 MulDiv (3c/25c),
/// 2 FP (3c), 2 FPMulDiv (5c/10c), 2 load ports, 1 store port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of simple integer ALUs.
    pub alu: u8,
    /// Integer ALU latency in cycles.
    pub alu_lat: u8,
    /// Number of integer multiply/divide units.
    pub muldiv: u8,
    /// Integer multiply latency.
    pub mul_lat: u8,
    /// Integer divide latency (unpipelined in the paper; modelled as latency).
    pub div_lat: u8,
    /// Number of FP add units.
    pub fp: u8,
    /// FP add latency.
    pub fp_lat: u8,
    /// Number of FP multiply/divide units.
    pub fpmuldiv: u8,
    /// FP multiply latency.
    pub fpmul_lat: u8,
    /// FP divide latency.
    pub fpdiv_lat: u8,
    /// Number of load ports.
    pub load_ports: u8,
    /// Number of store ports.
    pub store_ports: u8,
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig {
            alu: 4,
            alu_lat: 1,
            muldiv: 1,
            mul_lat: 3,
            div_lat: 25,
            fp: 2,
            fp_lat: 3,
            fpmuldiv: 2,
            fpmul_lat: 5,
            fpdiv_lat: 10,
            load_ports: 2,
            store_ports: 1,
        }
    }
}

/// Cache and memory hierarchy configuration (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache size in bytes (32 KB).
    pub l1d_bytes: u64,
    /// L1 data cache associativity.
    pub l1d_ways: usize,
    /// L1 data cache hit latency in cycles.
    pub l1d_lat: u64,
    /// L1 instruction cache size in bytes (32 KB).
    pub l1i_bytes: u64,
    /// L1 instruction cache associativity.
    pub l1i_ways: usize,
    /// Unified L2 size in bytes (1 MB).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_lat: u64,
    /// Minimum DRAM access latency in cycles (Table I: 75).
    pub mem_lat_min: u64,
    /// Maximum DRAM access latency in cycles (Table I: 185).
    pub mem_lat_max: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Stride prefetcher degree (prefetches into L2).
    pub prefetch_degree: u8,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1d_bytes: 32 * 1024,
            l1d_ways: 8,
            l1d_lat: 4,
            l1i_bytes: 32 * 1024,
            l1i_ways: 8,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
            l2_lat: 12,
            mem_lat_min: 75,
            mem_lat_max: 185,
            line_bytes: 64,
            prefetch_degree: 8,
        }
    }
}

/// EOLE configuration: Early Execution at rename and Late Execution / validation
/// just before commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EoleConfig {
    /// Width of the Early Execution stage (µ-ops per cycle).
    pub early_width: u8,
    /// Width of the Late Execution / validation stage (µ-ops per cycle).
    pub late_width: u8,
}

impl Default for EoleConfig {
    fn default() -> Self {
        EoleConfig {
            early_width: 8,
            late_width: 8,
        }
    }
}

/// Wrong-path execution configuration.
///
/// When present on a [`PipelineConfig`], the pipeline fetches and
/// speculatively executes the wrong-path µ-op bursts that a trace generator
/// with `WrongPathProfile` enabled emits after every conditional branch: on a
/// *mispredicted* branch the burst occupies real fetch, issue and
/// functional-unit bandwidth (and wrong-path loads touch the real cache
/// hierarchy) until the branch resolves, then everything is squashed.
/// Correctly predicted branches skip their burst at zero cost, as does a
/// pipeline configured without this struct — the paper's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WrongPathConfig {
    /// Pollution policy: when `true`, speculatively executed wrong-path µ-ops
    /// also *update* the value predictor with their bogus results (through
    /// the guarded `train_wrong_path` path), modelling a speculative-update
    /// predictor design. When `false` (the default, matching the paper's
    /// baseline) wrong-path µ-ops only probe the predictor: they pollute its
    /// speculative window but never its tables.
    pub update_predictor: bool,
}

/// How a shared value-prediction infrastructure is divided between the
/// contexts of a multi-programmed trace.
///
/// Sharded predictors (the BeBoP `ShardedTable`-backed block D-VTAGE) carry
/// the policy and use it to decide how per-context accesses map onto their
/// storage; the pipeline itself is policy-agnostic ([`MixConfig`]). For a
/// single-context trace (every µ-op carries ASID 0) all three policies are
/// exactly equivalent — the policy only matters once a second context exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharingPolicy {
    /// One fully shared predictor: every context indexes the whole table with
    /// the same hash, so contexts alias (and destructively interfere) freely.
    /// This is the paper's single-program model extended verbatim.
    #[default]
    Shared,
    /// The table's shards are partitioned between contexts: context `c` may
    /// only index its own shard range, so cross-context interference is
    /// structurally impossible (at the cost of each context seeing a smaller
    /// table).
    Partitioned,
    /// Entries are shared but tagged with the owning context: indexing is
    /// identical to [`SharingPolicy::Shared`], tags are extended with the
    /// ASID, so a context misses (rather than mispredicts) on another
    /// context's entries and reallocates them.
    Tagged,
}

impl SharingPolicy {
    /// All policies, in report order.
    pub const ALL: [SharingPolicy; 3] = [
        SharingPolicy::Shared,
        SharingPolicy::Partitioned,
        SharingPolicy::Tagged,
    ];

    /// The display label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            SharingPolicy::Shared => "shared",
            SharingPolicy::Partitioned => "partitioned",
            SharingPolicy::Tagged => "tagged",
        }
    }
}

/// Multi-programmed (mix) execution configuration.
///
/// When present on a [`PipelineConfig`], the pipeline treats changes of
/// [`bebop_isa::DynUop::asid`] in its input stream as context switches: the
/// front-end fetch continuity (current fetch group, fetch-block adjacency) is
/// flushed, modelling the fetch redirect of a real context switch, the switch
/// is counted, and per-context statistics are split in `SimStats::contexts`.
/// Single-context traces never switch, so a mix-configured pipeline over an
/// ASID-0-only stream behaves bit-identically to one configured without.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixConfig;

/// Full pipeline configuration, mirroring Table I of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Human-readable name of the configuration (e.g. `Baseline_6_60`).
    pub name: String,
    /// Fetch block size in bytes (16 in the paper).
    pub fetch_block_bytes: u64,
    /// Number of fetch blocks fetched per cycle (2 in the paper, over one taken branch).
    pub fetch_blocks_per_cycle: u8,
    /// Front-end width in µ-ops per cycle (fetch/decode/rename = 8).
    pub front_width: u8,
    /// Fetch-to-rename depth in cycles (the paper's 15-cycle in-order front end).
    pub front_depth: u64,
    /// Minimum fetch-to-commit latency in cycles (20 with validation, 19 without).
    pub fetch_to_commit: u64,
    /// Out-of-order issue width (6 for the baseline, 4 for EOLE).
    pub issue_width: u8,
    /// Instruction-queue (scheduler) entries (60).
    pub iq_entries: usize,
    /// Reorder-buffer entries (192).
    pub rob_entries: usize,
    /// Load-queue entries (72).
    pub lq_entries: usize,
    /// Store-queue entries (48).
    pub sq_entries: usize,
    /// Commit width in µ-ops per cycle (8).
    pub commit_width: u8,
    /// Functional units.
    pub fu: FuConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// EOLE early/late execution (None = conventional pipeline).
    pub eole: Option<EoleConfig>,
    /// Whether value predictions supplied by the value predictor may be consumed.
    pub value_prediction: bool,
    /// Whether load-immediate values are written to the PRF in the front-end for
    /// free (BeBoP Section II-B3); requires `value_prediction` infrastructure.
    pub free_load_immediates: bool,
    /// TAGE branch predictor: number of tagged components (12 in Table I).
    pub tage_tagged_components: usize,
    /// TAGE: log2 entries of each tagged component.
    pub tage_log_tagged: usize,
    /// TAGE: log2 entries of the bimodal base component.
    pub tage_log_base: usize,
    /// Branch target buffer entries (8K, 2-way in Table I).
    pub btb_entries: usize,
    /// Return-address-stack entries (32).
    pub ras_entries: usize,
    /// Wrong-path execution mode (None = wrong-path µ-ops are skipped for
    /// free, the paper's model).
    pub wrong_path: Option<WrongPathConfig>,
    /// Multi-programmed execution mode (None = the trace is assumed
    /// single-context; ASID changes are still counted but never flush).
    pub mix: Option<MixConfig>,
}

impl PipelineConfig {
    /// The paper's baseline: a 6-issue, 60-entry IQ superscalar without value
    /// prediction (`Baseline_6_60`).
    pub fn baseline_6_60() -> Self {
        PipelineConfig {
            name: "Baseline_6_60".to_string(),
            fetch_block_bytes: 16,
            fetch_blocks_per_cycle: 2,
            front_width: 8,
            front_depth: 15,
            fetch_to_commit: 19,
            issue_width: 6,
            iq_entries: 60,
            rob_entries: 192,
            lq_entries: 72,
            sq_entries: 48,
            commit_width: 8,
            fu: FuConfig::default(),
            mem: MemConfig::default(),
            eole: None,
            value_prediction: false,
            free_load_immediates: false,
            tage_tagged_components: 12,
            tage_log_tagged: 10,
            tage_log_base: 13,
            btb_entries: 8192,
            ras_entries: 32,
            wrong_path: None,
            mix: None,
        }
    }

    /// The baseline pipeline augmented with a value predictor validated at commit
    /// (`Baseline_VP_6_60`): same OoO engine, fetch-to-commit grows by the
    /// validation stage.
    pub fn baseline_vp_6_60() -> Self {
        let mut c = Self::baseline_6_60();
        c.name = "Baseline_VP_6_60".to_string();
        c.value_prediction = true;
        c.free_load_immediates = true;
        c.fetch_to_commit = 20;
        c
    }

    /// The EOLE pipeline of the paper: 4-issue OoO engine, Early Execution at
    /// rename and Late Execution/validation before commit (`EOLE_4_60`).
    pub fn eole_4_60() -> Self {
        let mut c = Self::baseline_vp_6_60();
        c.name = "EOLE_4_60".to_string();
        c.issue_width = 4;
        c.eole = Some(EoleConfig::default());
        c
    }

    /// Whether this configuration late-executes/validates predictions outside the
    /// OoO engine.
    pub fn has_eole(&self) -> bool {
        self.eole.is_some()
    }

    /// Returns this configuration with wrong-path execution enabled.
    /// `update_predictor` selects the pollution policy (see
    /// [`WrongPathConfig::update_predictor`]).
    #[must_use]
    pub fn with_wrong_path(mut self, update_predictor: bool) -> Self {
        self.wrong_path = Some(WrongPathConfig { update_predictor });
        self
    }

    /// Returns this configuration with multi-programmed (mix) execution
    /// enabled (fetch state flushed at context switches).
    #[must_use]
    pub fn with_mix(mut self) -> Self {
        self.mix = Some(MixConfig);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = PipelineConfig::baseline_6_60();
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.iq_entries, 60);
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sq_entries, 48);
        assert_eq!(c.fu.alu, 4);
        assert_eq!(c.mem.l1d_bytes, 32 * 1024);
        assert_eq!(c.mem.l2_bytes, 1024 * 1024);
        assert!(!c.value_prediction);
        assert!(c.eole.is_none());
    }

    #[test]
    fn eole_reduces_issue_width_and_enables_vp() {
        let c = PipelineConfig::eole_4_60();
        assert_eq!(c.issue_width, 4);
        assert!(c.value_prediction);
        assert!(c.has_eole());
        assert_eq!(c.fetch_to_commit, 20);
    }

    #[test]
    fn baseline_vp_keeps_issue_width() {
        let c = PipelineConfig::baseline_vp_6_60();
        assert_eq!(c.issue_width, 6);
        assert!(c.value_prediction);
        assert!(!c.has_eole());
    }

    #[test]
    fn mix_config_defaults_and_labels() {
        let c = PipelineConfig::baseline_vp_6_60();
        assert!(c.mix.is_none(), "mix mode is opt-in");
        assert!(format!("{c:?}").contains("mix: None"), "job keys render it");
        assert_eq!(c.with_mix().mix, Some(MixConfig));
        assert_eq!(SharingPolicy::default(), SharingPolicy::Shared);
        let labels: Vec<_> = SharingPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["shared", "partitioned", "tagged"]);
    }
}
