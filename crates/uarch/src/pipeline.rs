//! The superscalar out-of-order pipeline timing model.
//!
//! The model is trace driven and processes µ-ops in program order, assigning each
//! one a fetch, rename/dispatch, issue, completion and commit cycle subject to:
//!
//! * front-end bandwidth (fetch-block grouping, decode/rename width, front-end depth),
//! * finite structures (ROB, unified IQ, LQ, SQ) modelled as age-ordered occupancy
//!   rings,
//! * issue width and per-class functional-unit contention,
//! * data dependencies through architectural registers (renaming removes false
//!   dependencies, so only the most recent producer matters),
//! * the cache hierarchy and DRAM latencies for loads,
//! * branch mispredictions (fetch resumes after the branch executes) and value
//!   mispredictions (squash at commit, as in the paper's validation-at-commit
//!   model),
//! * EOLE early/late execution when enabled (predicted or immediate-operand µ-ops
//!   bypass the OoO engine entirely), and
//! * value prediction: a consumed prediction makes the producer's result available
//!   to dependents at dispatch rather than at completion.
//!
//! By default the wrong path is never simulated: the penalty of a misprediction
//! is the fetch bubble until resolution plus the pipeline refill implied by the
//! front-end depth, which is the first-order effect the paper's evaluation
//! relies on. With [`crate::WrongPathConfig`] set — and a trace carrying the
//! wrong-path bursts a `WrongPathProfile`-enabled generator emits — the model
//! additionally fetches the alternate-path µ-ops of every *mispredicted*
//! branch until it resolves: they occupy real fetch groups, consume issue and
//! functional-unit slots, wrong-path loads access (and pollute) the real cache
//! hierarchy, and the value predictor observes them under a configurable
//! pollution policy (probe-only, or speculative table updates through
//! [`ValuePredictor::train_wrong_path`]). At resolve everything is squashed:
//! wrong-path µ-ops never commit, never touch architectural register state and
//! never count towards the committed µ-op budget — the committed/fetched
//! distinction is carried in [`crate::WrongPathStats`].

use crate::branch::{BranchPredictorUnit, TageConfig};
use crate::cache::MemoryHierarchy;
use crate::config::PipelineConfig;
use crate::resources::{Lane, LanePool, OccupancyRing, NUM_POOL_LANES};
use crate::stats::{SimStats, MAX_SIM_CONTEXTS};
use crate::vp_iface::{PredictCtx, SquashCause, SquashInfo, ValuePredictor};
use bebop_isa::{
    ensure, fetch_block_pc, restore_snapshot, snap, snapshot, DynUop, ExecClass, StateResult,
    UopKind, NUM_ARCH_REGS,
};
use std::collections::VecDeque;

/// How a µ-op was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// Through the out-of-order engine (IQ + functional unit).
    OutOfOrder,
    /// Early-executed at rename (EOLE) or written for free in the front end.
    Early,
    /// Late-executed just before commit (EOLE): the µ-op is predicted, so its
    /// result is available at dispatch and the actual execution happens pre-commit.
    Late,
}

/// A deferred predictor update, applied once the retiring µ-op becomes
/// architecturally visible to younger fetches.
#[derive(Debug, Clone, Default)]
struct PendingTrain {
    commit_cycle: u64,
    uop: DynUop,
    predicted: Option<u64>,
}

/// Upper bound on distinct fetch blocks per cycle (the paper fetches two; the
/// inline array leaves headroom for wider configs without heap allocation).
const MAX_FETCH_BLOCKS: usize = 8;

/// Memory-level-parallelism bound of [`Pipeline::warm_functional`]'s virtual
/// commit clock: how many long-latency (beyond-L1) misses overlap. The
/// detailed model's out-of-order window overlaps misses up to dependence
/// chains and load-queue capacity; 4 concurrent misses reproduces its commit
/// frontier within ~10% on the miss-dominated SPEC traces (serialising them
/// overshoots the frontier ~3x, which over-matures deferred value-predictor
/// trainings after a squash redirect and hands sampled windows an
/// over-confident predictor).
const WARM_MLP: usize = 4;

/// Committed-µ-op horizon of the pollution-attribution heuristic: a value
/// misprediction within this many commits of a polluting wrong-path train *of
/// the same context* is counted as `WrongPathStats::pollution_mispredicts`
/// (the window is kept per context so a burst spanning a quantum boundary of
/// a multi-programmed trace cannot charge another context's mispredicts to
/// pollution). See that field's documentation for why this is a heuristic,
/// not ground truth.
const POLLUTION_WINDOW: u32 = 64;

/// An in-progress wrong-path episode: a mispredicted branch whose burst is
/// being fetched. Created when the branch is detected mispredicted, consumed
/// at the first correct-path µ-op after the burst (the resolve point), which
/// is when the deferred squash is delivered to the predictor — after it has
/// observed the wrong-path fetches, as in hardware.
#[derive(Debug, Clone, Copy, Default)]
struct WrongPathEpisode {
    /// Cycle the mispredicted branch resolves (its execute-complete cycle);
    /// wrong-path µ-ops are only fetched up to and including this cycle.
    resolve: u64,
    /// The squash to deliver at resolve (`None` when value prediction is off).
    squash: Option<SquashInfo>,
    /// Whether this episode has been counted in `WrongPathStats::bursts`
    /// (set once the first burst µ-op is actually fetched).
    counted: bool,
}

/// The current fetch group being assembled (one cycle's worth of fetch).
///
/// A new group starts every cycle or redirect — well inside the per-µop hot
/// loop — so the block list is a fixed inline array, not a `Vec`: the previous
/// heap-backed version allocated roughly once per simulated cycle.
#[derive(Debug, Clone, Copy, Default)]
struct FetchGroup {
    cycle: u64,
    uops: u8,
    num_blocks: u8,
    blocks: [u64; MAX_FETCH_BLOCKS],
}

impl FetchGroup {
    fn at_cycle(cycle: u64) -> Self {
        FetchGroup {
            cycle,
            ..FetchGroup::default()
        }
    }

    fn contains(&self, block: u64) -> bool {
        self.blocks[..self.num_blocks as usize].contains(&block)
    }

    fn push_block(&mut self, block: u64) {
        // `Pipeline::new` rejects configs with more blocks per cycle than the
        // inline capacity, so the group is always full before this saturates.
        if (self.num_blocks as usize) < MAX_FETCH_BLOCKS {
            self.blocks[self.num_blocks as usize] = block;
            self.num_blocks += 1;
        }
    }

    /// Rejects a restored block count beyond the group's capacity.
    fn check_restored(&mut self) -> StateResult<()> {
        ensure(
            self.num_blocks as usize <= MAX_FETCH_BLOCKS,
            "fetch group block count out of range",
        )
    }
}

/// One in-flight fetch group, accumulated structure-of-arrays style by
/// [`Pipeline::enqueue`] and drained by [`Pipeline::flush_batch`]: the
/// front-end work (fetch, branch prediction, value-predictor probe) runs per
/// µ-op at accumulation time — redirect cycles must be current before the
/// next µ-op's group-boundary check — while the back-end work (cache walk,
/// pool allocation, ring floors, commit) runs once per group over the lanes.
///
/// The scratch vectors are flush-time lane buffers, reused across groups so
/// the steady-state hot loop never allocates.
#[derive(Debug, Default)]
struct Batch {
    /// Shared fetch cycle of every µ-op in the group.
    fetch_cycle: u64,
    uops: Vec<DynUop>,
    branch_misp: Vec<bool>,
    predicted: Vec<Option<u64>>,
    // Flush-time lanes.
    lat: Vec<u64>,
    rename: Vec<u64>,
    dispatch: Vec<u64>,
    rob_rel: Vec<u64>,
    iq_rel: Vec<u64>,
    lq_rel: Vec<u64>,
    sq_rel: Vec<u64>,
}

impl Batch {
    fn len(&self) -> usize {
        self.uops.len()
    }

    fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    fn clear(&mut self) {
        self.uops.clear();
        self.branch_misp.clear();
        self.predicted.clear();
    }
}

/// The pipeline simulator. Create one per (configuration, run), feed it a trace and
/// a value predictor, and read the resulting [`SimStats`].
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipelineConfig,
    bpu: BranchPredictorUnit,
    mem: MemoryHierarchy,

    // All per-cycle bandwidth resources (rename, issue, the functional-unit
    // classes, EOLE early/late, commit) as lanes of one generation-counted
    // pool, each with its own horizon and tagged ring.
    pool: LanePool,

    // Finite structures.
    rob: OccupancyRing,
    iq: OccupancyRing,
    lq: OccupancyRing,
    sq: OccupancyRing,

    // Register availability: cycle at which the current architectural value of each
    // register can be read by a consumer, and whether that value is available in
    // the front end (predicted / immediate / early-executed).
    reg_avail: Vec<u64>,
    reg_frontend: Vec<bool>,

    // Fetch state.
    group: FetchGroup,
    fetch_resume: u64,
    last_block_pc: Option<u64>,

    // The fetch group currently being accumulated, plus the group size at
    // which accumulation must stop regardless of geometry (the occupancy-ring
    // floor gather reads the pre-group ring state, which is only exact while
    // in-group pushes stay below every ring's capacity).
    batch: Batch,
    batch_cap: usize,

    // Commit state.
    last_commit: u64,

    // Deferred predictor training.
    pending_train: VecDeque<PendingTrain>,

    // Wrong-path execution state.
    wrong_path: Option<WrongPathEpisode>,
    /// Committed µ-ops remaining in the pollution-attribution window, *per
    /// context* (armed on every polluting wrong-path train of that context).
    /// A single shared window would leak attribution across a context switch:
    /// a burst of context A arming the window just before a quantum boundary
    /// would charge context B's unrelated early mispredicts to pollution.
    /// Each context's window is armed by its own wrong-path trains and
    /// consumed by its own commits only.
    pollution_window: [u32; MAX_SIM_CONTEXTS],

    // Multi-programming state: the context of the last committed µ-op.
    cur_asid: u8,

    stats: SimStats,
}

impl Pipeline {
    /// Builds a pipeline for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fetch_blocks_per_cycle` exceeds the fetch group's inline
    /// block capacity (`MAX_FETCH_BLOCKS` = 8; the paper fetches two).
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(
            cfg.fetch_blocks_per_cycle as usize <= MAX_FETCH_BLOCKS,
            "fetch_blocks_per_cycle {} exceeds the supported maximum {MAX_FETCH_BLOCKS}",
            cfg.fetch_blocks_per_cycle
        );
        let tage_cfg = TageConfig {
            log_base: cfg.tage_log_base,
            num_tagged: cfg.tage_tagged_components,
            log_tagged: cfg.tage_log_tagged,
            ..TageConfig::default()
        };
        let eole = cfg.eole.unwrap_or_default();
        // Lane order must match the `Lane` discriminants.
        let widths: [u16; NUM_POOL_LANES] = [
            u16::from(cfg.front_width),
            u16::from(cfg.issue_width),
            u16::from(cfg.fu.alu),
            u16::from(cfg.fu.muldiv),
            u16::from(cfg.fu.fp),
            u16::from(cfg.fu.fpmuldiv),
            u16::from(cfg.fu.load_ports),
            u16::from(cfg.fu.store_ports),
            u16::from(eole.early_width.max(1)),
            u16::from(eole.late_width.max(1)),
            u16::from(cfg.commit_width),
        ];
        let batch_cap = usize::from(cfg.front_width)
            .min(cfg.rob_entries)
            .min(cfg.iq_entries)
            .min(cfg.lq_entries)
            .min(cfg.sq_entries)
            .max(1);
        Pipeline {
            bpu: BranchPredictorUnit::new(tage_cfg, cfg.btb_entries, cfg.ras_entries),
            mem: MemoryHierarchy::new(cfg.mem),
            pool: LanePool::new(widths),
            rob: OccupancyRing::new(cfg.rob_entries),
            iq: OccupancyRing::new(cfg.iq_entries),
            lq: OccupancyRing::new(cfg.lq_entries),
            sq: OccupancyRing::new(cfg.sq_entries),
            reg_avail: vec![0; NUM_ARCH_REGS as usize],
            reg_frontend: vec![false; NUM_ARCH_REGS as usize],
            group: FetchGroup::default(),
            fetch_resume: 0,
            last_block_pc: None,
            batch: Batch::default(),
            batch_cap,
            last_commit: 0,
            pending_train: VecDeque::new(),
            wrong_path: None,
            pollution_window: [0; MAX_SIM_CONTEXTS],
            cur_asid: 0,
            stats: SimStats::default(),
            cfg,
        }
    }

    /// The configuration this pipeline was built with.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Runs the pipeline over (up to `max_uops` µ-ops of) `trace` with the given
    /// value predictor and returns the statistics.
    ///
    /// The predictor parameter is generic so that a concrete predictor type (e.g.
    /// the statically dispatched `AnyPredictor` enum of the `bebop` crate) gets a
    /// fully monomorphic inner loop; `&mut dyn ValuePredictor` still works for
    /// out-of-tree predictors.
    pub fn run<I, P>(mut self, trace: I, predictor: &mut P, max_uops: u64) -> SimStats
    where
        I: IntoIterator<Item = DynUop>,
        P: ValuePredictor + ?Sized,
    {
        let mut iter = trace.into_iter();
        let mut stream_pos = 0u64;
        self.run_segment(&mut iter, predictor, max_uops, &mut stream_pos);
        self.finish(predictor)
    }

    /// Runs the pipeline until the *absolute* committed-µ-op count reaches
    /// `stop_at_committed` or the stream ends, whichever comes first.
    ///
    /// `stream_pos` is incremented once per µ-op pulled from `trace`
    /// (wrong-path slots included), giving the caller the exact stream cursor
    /// a checkpoint must record: a resumed run fast-forwards a fresh stream by
    /// that many `next()` calls and continues bit-identically. The checkpoint
    /// driver calls this in chunks — committed µ-ops since construction/restore
    /// are carried in the statistics, so the budget is absolute, not relative.
    pub fn run_segment<I, P>(
        &mut self,
        trace: &mut I,
        predictor: &mut P,
        stop_at_committed: u64,
        stream_pos: &mut u64,
    ) where
        I: Iterator<Item = DynUop>,
        P: ValuePredictor + ?Sized,
    {
        // Count the budget in u64 rather than `take(max_uops as usize)`:
        // the cast silently truncates >4G-µop budgets on 32-bit targets.
        // The budget counts *committed* µ-ops only: wrong-path burst µ-ops
        // are simulated (or skipped) without consuming it, so a run over a
        // wrong-path trace commits exactly as many µ-ops as one over the
        // equivalent plain trace. Batched µ-ops still count against the
        // budget while in flight, and the final flush drains them, so the
        // segment stops on the exact committed count and leaves no hidden
        // in-batch state for a checkpoint to miss.
        while self.stats.uops + (self.batch.len() as u64) < stop_at_committed {
            let Some(uop) = trace.next() else {
                break;
            };
            *stream_pos += 1;
            if uop.wrong_path {
                if self.cfg.wrong_path.is_some() && self.wrong_path.is_some() {
                    // A burst only follows a flushed mispredicting branch, so
                    // the batch is already empty; the flush is a no-op guard.
                    self.flush_batch(predictor);
                    self.step_wrong_path(&uop, predictor);
                }
                continue;
            }
            self.enqueue(&uop, predictor);
        }
        self.flush_batch(predictor);
    }

    /// Committed µ-ops so far (the absolute budget consumed across every
    /// [`Pipeline::run_segment`] call, surviving checkpoint restore).
    pub fn committed_uops(&self) -> u64 {
        self.stats.uops
    }

    /// A mid-run snapshot of the statistics, finalised exactly the way
    /// [`Pipeline::finish`] finalises them (cycles up to the last commit,
    /// branch/memory counters pulled from their units) but without consuming
    /// the pipeline or draining deferred predictor training.
    ///
    /// Phase-sampled simulation uses this to mark the warm-up boundary of a
    /// slice run: simulate warm-up and measurement window in one pipeline,
    /// snapshot between them, and report the counter delta
    /// ([`SimStats::delta_since`]) as the slice's statistics.
    pub fn stats_snapshot(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.last_commit;
        s.branch = self.bpu.stats();
        s.mem = self.mem.stats();
        s
    }

    /// Functionally warms the pipeline's stateful structures — branch
    /// predictor (with its global/path history), cache hierarchy and the
    /// value predictor — by replaying up to `stop_at_committed` committed
    /// µ-ops of `trace` through the commit path only, with no cycle-level
    /// timing. Returns the number of committed µ-ops consumed.
    ///
    /// This is the SMARTS-style *functional warming* phase of sampled
    /// simulation: a representative slice measured after a functionally
    /// warmed prefix sees (approximately) the architectural predictor/cache
    /// state a full detailed run would have reached at the same point, at a
    /// fraction of the cost — no resource modelling, no occupancy rings, no
    /// statistics other than the units' own internal counters (callers
    /// bracket those with [`Pipeline::stats_snapshot`] /
    /// [`SimStats::delta_since`]). Value-predictor training is deferred
    /// behind a *virtual commit clock*: µ-ops fetch in detailed-model fetch
    /// groups and commit in order no earlier than `fetch + fetch_to_commit +
    /// load-miss latency`; a training matures when the fetch clock passes
    /// the trainee's commit time, so commit-to-fetch training visibility
    /// tracks the detailed model in both compute-bound (short lag) and
    /// memory-bound (fetch decoupled far behind commit, very long lag)
    /// phases; wrong-path µ-ops are skipped (without cycle timing there is
    /// no resolve window to fetch them in).
    ///
    /// Everything here is deterministic: same trace prefix, same resulting
    /// state, independent of thread count or wall clock.
    pub fn warm_functional<I, P>(
        &mut self,
        trace: &mut I,
        predictor: &mut P,
        stop_at_committed: u64,
        stream_pos: &mut u64,
    ) -> u64
    where
        I: Iterator<Item = DynUop>,
        P: ValuePredictor + ?Sized,
    {
        let cfg_vp = self.cfg.value_prediction;
        let commit_step = 1.0 / f64::from(self.cfg.commit_width.max(1));
        let depth_cycles = self.cfg.fetch_to_commit as f64;
        let front_depth = self.cfg.front_depth as f64;
        let l1d_lat = self.cfg.mem.l1d_lat;
        let front_width = self.cfg.front_width.max(1);
        let blocks_per_cycle = (self.cfg.fetch_blocks_per_cycle as usize).max(1);
        // Virtual fetch clock (cycles) with the detailed model's fetch-group
        // shape: up to `front_width` µ-ops per cycle from at most
        // `fetch_blocks_per_cycle` distinct blocks. Fetch is *decoupled* from
        // commit (exactly as in [`Pipeline::fetch`]): in miss-heavy regions
        // the in-order commit frontier runs far ahead of the fetch clock, so
        // deferred trainings mature with the same very long lag the detailed
        // model exhibits — the property confidence-gated predictors are most
        // sensitive to. Only a squash redirect re-synchronises the two.
        let mut vnow = 0.0f64;
        let mut group_uops: u8 = 0;
        let mut group_blocks: [u64; MAX_FETCH_BLOCKS] = [0; MAX_FETCH_BLOCKS];
        let mut group_len: usize = 0;
        let mut last_commit = 0.0f64;
        // Out-of-order execution overlaps long-latency misses; serialising
        // them would run the virtual commit frontier ~3x ahead of the real
        // one. Model bounded memory-level parallelism instead: up to
        // [`WARM_MLP`] misses in flight, a new one starting no earlier than
        // the completion of the miss `WARM_MLP` back.
        let mut mshr: VecDeque<f64> = VecDeque::new();
        // Per-register completion times — the same dataflow the detailed
        // model's `reg_avail` tracks. This is what separates a loop-control
        // branch (sources written by short ALU chains, resolving shortly
        // after its own fetch) from a data-dependent branch waiting on a
        // missing load (resolving near the miss completion): the two drag
        // the fetch clock forward by wildly different amounts on a
        // mispredict, and training visibility hinges on which one dominates.
        let mut reg_done = vec![0.0f64; NUM_ARCH_REGS as usize];
        // ROB occupancy: µ-op `n` cannot dispatch before µ-op
        // `n - rob_entries` commits. In miss-bound phases the ROB is full,
        // so this floor drags every dispatch — and with it every branch
        // resolve — to within a ROB-span of the commit frontier, which is
        // exactly how the detailed model's rare branch redirects still keep
        // training maturation within a bounded lag of commit.
        let rob_entries = self.cfg.rob_entries.max(1);
        let mut rob_ring: VecDeque<f64> = VecDeque::new();
        let mut pending: VecDeque<(DynUop, Option<u64>, f64)> = VecDeque::new();
        let mut committed = 0u64;
        while committed < stop_at_committed {
            let Some(uop) = trace.next() else {
                break;
            };
            *stream_pos += 1;
            if uop.wrong_path {
                continue;
            }
            self.cur_asid = uop.asid;

            // ---- Virtual fetch --------------------------------------------
            let block_pc = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
            let known_block = group_blocks[..group_len].contains(&block_pc);
            if group_uops >= front_width
                || (!known_block && group_len >= blocks_per_cycle.min(MAX_FETCH_BLOCKS))
            {
                vnow += 1.0;
                group_uops = 0;
                group_len = 0;
            }
            if !group_blocks[..group_len].contains(&block_pc) && group_len < MAX_FETCH_BLOCKS {
                group_blocks[group_len] = block_pc;
                group_len += 1;
            }
            group_uops += 1;

            // Deliver trainings whose µ-ops retired before this fetch: their
            // values are architecturally visible to the predictor from now on.
            while pending.front().is_some_and(|(_, _, t)| *t <= vnow) {
                if let Some((u, p, _)) = pending.pop_front() {
                    predictor.train(&u, u.value, p);
                }
            }

            // Branch prediction: updates TAGE tables and the global/path
            // history the value predictor's context is derived from.
            let mut branch_mispredicted = false;
            if let Some(info) = uop.branch {
                branch_mispredicted =
                    self.bpu
                        .predict_and_update(uop.pc, uop.fallthrough_pc(), info);
            }

            // Value prediction: the same predict / deferred-train / squash
            // sequence the detailed commit path runs, minus the statistics.
            let new_block = self.last_block_pc != Some(block_pc);
            self.last_block_pc = Some(block_pc);
            let mut predicted: Option<u64> = None;
            if cfg_vp && uop.vp_eligible() {
                let ctx = PredictCtx {
                    seq: uop.seq,
                    fetch_block_pc: block_pc,
                    new_fetch_block: new_block,
                    global_history: self.bpu.global_history(),
                    path_history: self.bpu.path_history(),
                    asid: uop.asid,
                };
                predicted = predictor.predict(&ctx, &uop);
            }
            let free_imm = self.cfg.free_load_immediates && uop.uop.kind() == UopKind::LoadImm;

            // ---- Virtual dataflow timing ----------------------------------
            // Execution starts once the µ-op is past the front end and its
            // sources are complete; loads walk the real cache hierarchy (and
            // trigger its prefetchers), with long-latency misses overlapping
            // up to the MLP bound.
            let mut dispatch = vnow + front_depth;
            if rob_ring.len() >= rob_entries {
                // INVARIANT: len() >= rob_entries > 0, so pop_front is Some.
                dispatch = dispatch.max(rob_ring.pop_front().expect("non-empty"));
            }
            let ready = uop
                .uop
                .srcs()
                .map(|r| reg_done[r.raw() as usize])
                .fold(dispatch, f64::max);
            let kind = uop.uop.kind();
            let complete = if kind == UopKind::Load {
                let addr = uop.mem.map(|m| m.addr).unwrap_or(0);
                let lat = self.mem.access(uop.pc, addr);
                let mut start = ready + 1.0;
                if lat > l1d_lat {
                    if mshr.len() >= WARM_MLP {
                        // INVARIANT: len() >= WARM_MLP > 0, so the deque is
                        // non-empty and pop_front returns Some.
                        start = start.max(mshr.pop_front().expect("non-empty"));
                    }
                    let c = start + lat as f64;
                    mshr.push_back(c);
                    c
                } else {
                    start + lat as f64
                }
            } else {
                let lat = match kind {
                    UopKind::Mul => f64::from(self.cfg.fu.mul_lat),
                    UopKind::Div => f64::from(self.cfg.fu.div_lat),
                    UopKind::FpAdd => f64::from(self.cfg.fu.fp_lat),
                    UopKind::FpMul => f64::from(self.cfg.fu.fpmul_lat),
                    UopKind::FpDiv => f64::from(self.cfg.fu.fpdiv_lat),
                    UopKind::Store => 1.0,
                    _ => f64::from(self.cfg.fu.alu_lat),
                };
                ready + 1.0 + lat
            };
            // In-order commit: no earlier than the previous µ-op, no faster
            // than the commit width, no shallower than the pipeline depth,
            // and not before this µ-op's own completion.
            let commit_at = complete
                .max(last_commit + commit_step)
                .max(vnow + depth_cycles);
            last_commit = commit_at;
            rob_ring.push_back(commit_at);
            // A predicted (or free-immediate) destination is written to the
            // PRF at dispatch, breaking the dependence chain exactly as the
            // detailed model does; otherwise consumers wait for completion.
            if let Some(dst) = uop.uop.dst() {
                reg_done[dst.raw() as usize] = if predicted.is_some() || free_imm {
                    dispatch
                } else {
                    complete
                };
            }
            if branch_mispredicted && cfg_vp {
                predictor.squash(&SquashInfo {
                    flush_seq: uop.seq,
                    flush_pc: uop.pc,
                    next_pc: uop.next_pc(),
                    cause: SquashCause::BranchMispredict,
                    asid: uop.asid,
                });
            }
            let value_mispredicted = predicted.map(|v| v != uop.value).unwrap_or(false);
            if value_mispredicted {
                predictor.squash(&SquashInfo {
                    flush_seq: uop.seq,
                    flush_pc: uop.pc,
                    next_pc: if uop.is_last_uop() {
                        uop.next_pc()
                    } else {
                        uop.pc
                    },
                    cause: SquashCause::ValueMispredict,
                    asid: uop.asid,
                });
            }
            // A squash redirects fetch to the offender's resolve point. The
            // two causes resolve at very different times, and the detailed
            // model distinguishes them: a mispredicted *branch* resolves at
            // execute — early for a loop-control branch fed by short ALU
            // chains (leaving the deferred-training backlog intact), near
            // the commit frontier for one waiting on a missing load — while
            // a value mispredict is only detected by validation at *commit*,
            // snapping fetch to the frontier and maturing every older
            // training on the next fetch's drain.
            if branch_mispredicted {
                vnow = vnow.max(complete + 1.0);
                group_uops = 0;
                group_len = 0;
            }
            if value_mispredicted {
                vnow = vnow.max(commit_at + 1.0);
                group_uops = 0;
                group_len = 0;
            }
            if cfg_vp && uop.vp_eligible() {
                pending.push_back((uop, predicted, commit_at));
            }
            committed += 1;
        }
        // Hand the still-deferred trainings to the detailed engine, rebased
        // onto its fetch clock (whose next fetch lands at roughly this
        // pipeline's current group cycle, i.e. virtual time `vnow`). In the
        // detailed model these trainings have *not* matured: a miss-heavy
        // prefix leaves the commit frontier far ahead of the decoupled fetch
        // clock, and a warmed measurement window must see the same
        // not-yet-visible tail — draining it here would hand the window a
        // far more trained (and more confident) predictor than a continuous
        // run ever has at the same point.
        let base = self.group.cycle;
        for (u, p, t) in pending {
            // CAST: (t - vnow) is clamped non-negative and far below 2^52,
            // so the f64 -> u64 conversion is exact enough for a cycle tag.
            let commit_cycle = base + (t - vnow).max(0.0) as u64;
            self.pending_train.push_back(PendingTrain {
                commit_cycle,
                uop: u,
                predicted: p,
            });
        }
        committed
    }

    /// Ends the run: delivers any deferred squash, drains pending predictor
    /// training, and returns the final statistics.
    pub fn finish<P>(mut self, predictor: &mut P) -> SimStats
    where
        P: ValuePredictor + ?Sized,
    {
        // Drain a fetch group still in flight (run_segment already flushes;
        // this guards direct callers), then deliver a squash deferred past
        // the end of the stream so predictor bookkeeping is consistent
        // before the final training drain.
        self.flush_batch(predictor);
        self.resolve_wrong_path(predictor);
        // Drain remaining predictor updates so accuracy statistics are complete.
        while let Some(p) = self.pending_train.pop_front() {
            predictor.train(&p.uop, p.uop.value, p.predicted);
        }
        self.stats.cycles = self.last_commit;
        self.stats.branch = self.bpu.stats();
        self.stats.mem = self.mem.stats();
        self.stats
    }

    /// Returns whether fetching `uop` would start a new fetch group — the
    /// group-boundary predicate of [`Pipeline::fetch`], side-effect free.
    fn fetch_breaks_group(&self, uop: &DynUop) -> bool {
        if self.fetch_resume > self.group.cycle {
            return true;
        }
        let block = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
        let fits_width = self.group.uops < self.cfg.front_width;
        let known_block = self.group.contains(block);
        let fits_blocks = known_block
            || (self.group.num_blocks as usize) < self.cfg.fetch_blocks_per_cycle as usize;
        !(fits_width && fits_blocks)
    }

    /// Runs the front end for one committed (correct-path) µ-op — fetch,
    /// branch prediction, value-predictor probe — and accumulates it into the
    /// current fetch-group batch. The batch is flushed *before* this µ-op
    /// when it starts a new group (or context), and *after* it when it
    /// mispredicts: the redirect must update `fetch_resume` before the next
    /// µ-op's group-boundary check, which is exactly why group formation
    /// lives here and not in [`Pipeline::flush_batch`].
    fn enqueue<P: ValuePredictor + ?Sized>(&mut self, uop: &DynUop, predictor: &mut P) {
        // A wrong-path episode ends at the first correct-path µ-op: the
        // mispredicted branch has resolved, and the squash — deferred so the
        // predictor could observe the wrong-path fetches first — lands now.
        // (An active episode implies the batch is empty: it was created by
        // the flush of the mispredicting branch's own group.)
        self.resolve_wrong_path(predictor);

        // ---- Context switch ----------------------------------------------------
        // A change of ASID between committed µ-ops is a quantum boundary of a
        // multi-programmed trace. Fetch continuity never spans it: the next
        // context starts a fresh fetch group (when the mix mode says to
        // flush), exactly like a taken redirect. Single-context traces carry
        // ASID 0 throughout and never reach this branch.
        if uop.asid != self.cur_asid {
            self.flush_batch(predictor);
            self.cur_asid = uop.asid;
            self.stats.context_switches += 1;
            if self.cfg.mix.map(|m| m.flush_on_switch).unwrap_or(false) {
                self.fetch_resume = self.fetch_resume.max(self.group.cycle + 1);
                self.last_block_pc = None;
            }
        }

        // ---- Fetch -------------------------------------------------------------
        if !self.batch.is_empty() && self.fetch_breaks_group(uop) {
            self.flush_batch(predictor);
        }
        let fetch_cycle = self.fetch(uop);
        if self.batch.is_empty() {
            self.batch.fetch_cycle = fetch_cycle;
            // Release predictor updates for µ-ops that retired before this
            // group's fetch: their values are architecturally visible to the
            // predictor from now on. Once per group is exact — every µ-op of
            // the group fetches at the same cycle, and a µ-op committed by
            // this very group retires at least `fetch_to_commit` cycles
            // later, so nothing new matures mid-group.
            while let Some(front) = self.pending_train.front() {
                if front.commit_cycle <= fetch_cycle {
                    // INVARIANT: front() just returned Some on this same deque.
                    let p = self.pending_train.pop_front().expect("non-empty");
                    predictor.train(&p.uop, p.uop.value, p.predicted);
                } else {
                    break;
                }
            }
        }
        debug_assert_eq!(fetch_cycle, self.batch.fetch_cycle);

        // ---- Branch prediction ---------------------------------------------------
        let mut branch_mispredicted = false;
        if let Some(info) = uop.branch {
            branch_mispredicted = self
                .bpu
                .predict_and_update(uop.pc, uop.fallthrough_pc(), info);
        }

        // ---- Value prediction ----------------------------------------------------
        let ctx_slot = SimStats::context_slot(uop.asid);
        let block_pc = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
        let new_block = self.last_block_pc != Some(block_pc);
        self.last_block_pc = Some(block_pc);

        let mut predicted: Option<u64> = None;
        if self.cfg.value_prediction && uop.vp_eligible() {
            self.stats.vp.eligible += 1;
            self.stats.contexts[ctx_slot].vp.eligible += 1;
            let ctx = PredictCtx {
                seq: uop.seq,
                fetch_block_pc: block_pc,
                new_fetch_block: new_block,
                global_history: self.bpu.global_history(),
                path_history: self.bpu.path_history(),
                asid: uop.asid,
            };
            predicted = predictor.predict(&ctx, uop);
            if predicted.is_some() {
                self.stats.vp.predicted += 1;
                self.stats.contexts[ctx_slot].vp.predicted += 1;
            }
        }
        if self.cfg.free_load_immediates && uop.uop.kind() == UopKind::LoadImm {
            self.stats.vp.free_load_immediates += 1;
            self.stats.contexts[ctx_slot].vp.free_load_immediates += 1;
        }

        let value_mispredicted = predicted.map(|v| v != uop.value).unwrap_or(false);
        self.batch.uops.push(*uop);
        self.batch.branch_misp.push(branch_mispredicted);
        self.batch.predicted.push(predicted);

        // A mispredicting µ-op closes its group immediately: its redirect
        // cycle (computed by the flush) gates where the next µ-op fetches.
        // The cap keeps the ring floor gather exact (see `batch_cap`).
        if branch_mispredicted || value_mispredicted || self.batch.len() >= self.batch_cap {
            self.flush_batch(predictor);
        }
    }

    /// Processes the accumulated fetch group through the back end: cache
    /// walk, rename, occupancy-ring floors, execution-mode resolution, pool
    /// allocation, commit, flush bookkeeping and statistics. Lane-parallel
    /// work (cache latencies, the rename pass, the ROB floor gather,
    /// structure releases, pool pruning) runs once per group; only the
    /// dataflow-coupled remainder stays per-µ-op.
    ///
    /// Flushing early — at any group boundary the front end picks — is
    /// always bit-identical to scalar processing: group *formation* is fixed
    /// by `fetch`, and the back end never reads front-end state.
    fn flush_batch<P: ValuePredictor + ?Sized>(&mut self, predictor: &mut P) {
        let n = self.batch.len();
        if n == 0 {
            return;
        }
        let fetch_cycle = self.batch.fetch_cycle;
        let cfg_vp = self.cfg.value_prediction;

        // ---- Latency lane pass ---------------------------------------------------
        // The cache model is hoisted out of the per-µ-op scalar path: loads
        // walk the hierarchy here, in program order (every load executes
        // out-of-order — EOLE early/late never takes memory µ-ops — so the
        // scalar path called `mem.access` for exactly these µ-ops in exactly
        // this order).
        self.batch.lat.clear();
        for i in 0..n {
            let uop = self.batch.uops[i];
            let lat = match uop.uop.kind() {
                UopKind::Alu | UopKind::LoadImm | UopKind::Nop | UopKind::Branch => {
                    u64::from(self.cfg.fu.alu_lat)
                }
                UopKind::Mul => u64::from(self.cfg.fu.mul_lat),
                UopKind::Div => u64::from(self.cfg.fu.div_lat),
                UopKind::FpAdd => u64::from(self.cfg.fu.fp_lat),
                UopKind::FpMul => u64::from(self.cfg.fu.fpmul_lat),
                UopKind::FpDiv => u64::from(self.cfg.fu.fpdiv_lat),
                UopKind::Load => {
                    let addr = uop.mem.map(|m| m.addr).unwrap_or(0);
                    self.mem.access(uop.pc, addr)
                }
                UopKind::Store => 1,
            };
            self.batch.lat.push(lat);
        }

        // ---- Rename lane pass ----------------------------------------------------
        // Every µ-op of the group requests the same rename cycle; the common
        // case fills one fresh pool row with a single counter update.
        self.batch.rename.clear();
        self.batch.rename.resize(n, 0);
        self.pool.allocate_group(
            Lane::Rename,
            fetch_cycle + self.cfg.front_depth,
            &mut self.batch.rename,
        );

        // ---- ROB floor gather ------------------------------------------------------
        // `release_floor_after(i)` reads the pre-group ring state the way the
        // scalar loop's interleaved constrain/push sequence would: the i-th
        // µ-op's floor is the release of the entry `i` pushes will evict.
        // The dispatch base is the lane-wise max with the rename cycles, in
        // unrolled u64×4 chunks.
        self.batch.dispatch.clear();
        for i in 0..n {
            self.batch.dispatch.push(self.rob.release_floor_after(i));
        }
        let (head, tail) = self.batch.dispatch.split_at_mut(n & !3);
        for (d4, r4) in head
            .chunks_exact_mut(4)
            .zip(self.batch.rename.chunks_exact(4))
        {
            d4[0] = d4[0].max(r4[0]);
            d4[1] = d4[1].max(r4[1]);
            d4[2] = d4[2].max(r4[2]);
            d4[3] = d4[3].max(r4[3]);
        }
        for (d, &r) in tail.iter_mut().zip(&self.batch.rename[n & !3..]) {
            *d = (*d).max(r);
        }

        // ---- Per-µ-op dataflow pass ------------------------------------------------
        // Execution-mode resolution reads `reg_frontend` written by older
        // µ-ops of the same group, readiness reads `reg_avail`, and commit is
        // serialised through `last_commit` — this part is genuinely
        // sequential. Structure releases are deferred to lane pushes below;
        // the in-group push counts feed the IQ/LQ/SQ floor reads.
        self.batch.rob_rel.clear();
        self.batch.iq_rel.clear();
        self.batch.lq_rel.clear();
        self.batch.sq_rel.clear();
        for i in 0..n {
            let uop = self.batch.uops[i];
            let branch_mispredicted = self.batch.branch_misp[i];
            let predicted = self.batch.predicted[i];
            let ctx_slot = SimStats::context_slot(uop.asid);
            let kind = uop.uop.kind();
            let free_imm = self.cfg.free_load_immediates && kind == UopKind::LoadImm;
            let predicted_used = predicted.is_some();
            let prediction_correct = predicted.map(|v| v == uop.value).unwrap_or(false);
            let rename_cycle = self.batch.rename[i];

            // ---- Execution mode ----
            let is_single_cycle_alu = matches!(kind, UopKind::Alu | UopKind::Nop | UopKind::Branch);
            let srcs_in_frontend = uop.uop.srcs().all(|r| self.reg_frontend[r.raw() as usize]);
            // Early: a free-load immediate, or (with EOLE) a single-cycle ALU
            // µ-op whose sources are all available in the front end.
            let eole_early =
                self.cfg.has_eole() && is_single_cycle_alu && !kind.is_mem() && srcs_in_frontend;
            let mode = if free_imm || eole_early {
                ExecMode::Early
            } else if self.cfg.has_eole() && predicted_used && is_single_cycle_alu && !kind.is_mem()
            {
                ExecMode::Late
            } else {
                ExecMode::OutOfOrder
            };

            // Structure constraints beyond the ROB. The gathered dispatch
            // base is already `max(rename, rob floor)`, so only the
            // per-class floors remain.
            let mut dispatch_floor = self.batch.dispatch[i];
            let uses_iq = mode == ExecMode::OutOfOrder;
            if uses_iq {
                dispatch_floor =
                    dispatch_floor.max(self.iq.release_floor_after(self.batch.iq_rel.len()));
            }
            if kind == UopKind::Load {
                dispatch_floor =
                    dispatch_floor.max(self.lq.release_floor_after(self.batch.lq_rel.len()));
            }
            if kind == UopKind::Store {
                dispatch_floor =
                    dispatch_floor.max(self.sq.release_floor_after(self.batch.sq_rel.len()));
            }
            let dispatch_cycle = dispatch_floor;

            // ---- Execute ----
            let ready_cycle = uop
                .uop
                .srcs()
                .map(|r| self.reg_avail[r.raw() as usize])
                .max()
                .unwrap_or(0)
                .max(dispatch_cycle);

            let (issue_cycle, complete_cycle) = match mode {
                ExecMode::Early => {
                    let c = self.pool.allocate(Lane::Early, rename_cycle);
                    (c, c)
                }
                ExecMode::Late => {
                    // Result (the prediction) is available at dispatch; the
                    // actual execution happens in the late-execution stage
                    // before commit and does not consume OoO resources.
                    let c = self.pool.allocate(Lane::Late, dispatch_cycle);
                    (c, dispatch_cycle)
                }
                ExecMode::OutOfOrder => {
                    let fu_lane = match kind.exec_class() {
                        ExecClass::Alu => Lane::Alu,
                        ExecClass::MulDiv => Lane::MulDiv,
                        ExecClass::Fp => Lane::Fp,
                        ExecClass::FpMulDiv => Lane::FpMulDiv,
                        ExecClass::Load => Lane::Load,
                        ExecClass::Store => Lane::Store,
                    };
                    let fu_cycle = self.pool.allocate(fu_lane, ready_cycle + 1);
                    let issue_cycle = self.pool.allocate(Lane::Issue, fu_cycle);
                    (issue_cycle, issue_cycle + self.batch.lat[i])
                }
            };

            match mode {
                ExecMode::Early => self.stats.eole.early_executed += 1,
                ExecMode::Late => self.stats.eole.late_executed += 1,
                ExecMode::OutOfOrder => self.stats.eole.ooo_executed += 1,
            }

            // ---- Commit ----
            let commit_floor = complete_cycle
                .max(self.last_commit)
                .max(fetch_cycle + self.cfg.fetch_to_commit);
            let commit_cycle = self.pool.allocate(Lane::Commit, commit_floor);
            self.last_commit = commit_cycle;

            // ---- Structure releases (deferred to the lane pushes below) ----
            self.batch.rob_rel.push(commit_cycle);
            if uses_iq {
                self.batch.iq_rel.push(issue_cycle);
            }
            if kind == UopKind::Load {
                self.batch.lq_rel.push(commit_cycle);
            }
            if kind == UopKind::Store {
                self.batch.sq_rel.push(commit_cycle);
            }

            // ---- Register availability ----
            if let Some(dst) = uop.uop.dst() {
                let idx = dst.raw() as usize;
                if predicted_used || free_imm {
                    // The predicted / immediate value is written to the PRF at dispatch.
                    self.reg_avail[idx] = dispatch_cycle;
                    self.reg_frontend[idx] = true;
                } else if mode == ExecMode::Early {
                    self.reg_avail[idx] = complete_cycle;
                    self.reg_frontend[idx] = true;
                } else {
                    self.reg_avail[idx] = complete_cycle;
                    self.reg_frontend[idx] = false;
                }
            }

            // ---- Flushes ----
            // Only the last µ-op of a group can mispredict: the front end
            // closes the group at the mispredicting µ-op, so the redirect
            // below is in place before the next µ-op fetches.
            if branch_mispredicted {
                self.stats.branch_flushes += 1;
                self.stats.contexts[ctx_slot].branch_flushes += 1;
                self.fetch_resume = self.fetch_resume.max(complete_cycle + 1);
                let info = SquashInfo {
                    flush_seq: uop.seq,
                    flush_pc: uop.pc,
                    next_pc: uop.next_pc(),
                    cause: SquashCause::BranchMispredict,
                    asid: uop.asid,
                };
                if self.cfg.wrong_path.is_some() {
                    // Wrong-path mode: the burst following this branch in the
                    // stream is fetched until the branch resolves, and the squash
                    // is delivered at the first correct-path µ-op thereafter.
                    self.wrong_path = Some(WrongPathEpisode {
                        resolve: complete_cycle,
                        squash: cfg_vp.then_some(info),
                        counted: false,
                    });
                } else if cfg_vp {
                    predictor.squash(&info);
                }
            }
            if predicted_used && !prediction_correct {
                // Pollution attribution is gated per context: only a polluting
                // wrong-path train of *this* µ-op's context within the window
                // counts, so a burst spanning a context switch cannot charge the
                // next context's unrelated mispredicts to pollution.
                if self.pollution_window[ctx_slot] > 0 {
                    self.stats.wrong_path.pollution_mispredicts += 1;
                }
                // Validation at commit detects the wrong value and squashes everything
                // younger than this µ-op.
                self.stats.vp_flushes += 1;
                self.stats.vp.incorrect += 1;
                self.stats.contexts[ctx_slot].vp_flushes += 1;
                self.stats.contexts[ctx_slot].vp.incorrect += 1;
                self.fetch_resume = self.fetch_resume.max(commit_cycle + 1);
                predictor.squash(&SquashInfo {
                    flush_seq: uop.seq,
                    flush_pc: uop.pc,
                    next_pc: if uop.is_last_uop() {
                        uop.next_pc()
                    } else {
                        uop.pc
                    },
                    cause: SquashCause::ValueMispredict,
                    asid: uop.asid,
                });
            } else if predicted_used {
                self.stats.vp.correct += 1;
                self.stats.contexts[ctx_slot].vp.correct += 1;
            }

            // ---- Deferred training ----
            if cfg_vp && uop.vp_eligible() {
                self.pending_train.push_back(PendingTrain {
                    commit_cycle,
                    uop,
                    predicted,
                });
            }

            // ---- Accounting ----
            self.stats.uops += 1;
            self.stats.contexts[ctx_slot].uops += 1;
            if uop.is_last_uop() {
                self.stats.insts += 1;
                self.stats.contexts[ctx_slot].insts += 1;
            }
            // Only this context's commits consume its attribution window.
            self.pollution_window[ctx_slot] = self.pollution_window[ctx_slot].saturating_sub(1);

            #[cfg(feature = "simcheck")]
            self.simcheck_step();
        }

        // ---- Structure release lane pushes -------------------------------------------
        self.rob.push_group(&self.batch.rob_rel);
        self.iq.push_group(&self.batch.iq_rel);
        self.lq.push_group(&self.batch.lq_rel);
        self.sq.push_group(&self.batch.sq_rel);

        // ---- Group-granular pruning ---------------------------------------------------
        // Nothing is ever requested below the group's fetch cycle again, so
        // every lane's window below it is dead. The commit lane additionally
        // trails `last_commit` (commit floors are monotone), and — without
        // wrong-path execution, whose burst µ-ops allocate near the *fetch*
        // frontier — the issue/FU/late lanes trail the ROB's oldest
        // outstanding release (every dispatch is floored by it). Those lane
        // horizons are what keep each lane's live window as short as the
        // in-flight window when a memory-bound phase decouples fetch far
        // behind commit. Raising a horizon is one store per lane, so it runs
        // every group.
        self.pool.prune_below(fetch_cycle.saturating_sub(4));
        self.pool.prune_lane_below(Lane::Commit, self.last_commit);
        if self.cfg.wrong_path.is_none() {
            let floor = self.rob.release_floor_after(0);
            for lane in [
                Lane::Issue,
                Lane::Alu,
                Lane::MulDiv,
                Lane::Fp,
                Lane::FpMulDiv,
                Lane::Load,
                Lane::Store,
                Lane::Late,
            ] {
                self.pool.prune_lane_below(lane, floor);
            }
        }

        self.batch.clear();
    }

    /// Ends a pending wrong-path episode, delivering its deferred squash.
    fn resolve_wrong_path<P: ValuePredictor + ?Sized>(&mut self, predictor: &mut P) {
        if let Some(wp) = self.wrong_path.take() {
            if let Some(squash) = wp.squash {
                predictor.squash(&squash);
            }
        }
    }

    /// Processes one wrong-path µ-op.
    ///
    /// Free when the preceding branch was predicted correctly (no episode is
    /// active) or wrong-path execution is disabled. Otherwise the µ-op is
    /// fetched into the real fetch-group stream until the branch resolves,
    /// probes the value predictor (polluting its speculative state), and — if
    /// it reaches the out-of-order engine in time — consumes real issue and
    /// functional-unit bandwidth, accesses the real caches (loads), and
    /// optionally delivers a polluting table update. It never commits, never
    /// writes architectural register state and never consumes µ-op budget.
    fn step_wrong_path<P: ValuePredictor + ?Sized>(&mut self, uop: &DynUop, predictor: &mut P) {
        let Some(wp_cfg) = self.cfg.wrong_path else {
            return;
        };
        let Some(wp) = self.wrong_path else {
            return;
        };

        let Some(fetch_cycle) = self.fetch_wrong_path(uop, wp.resolve) else {
            // The branch resolved before the front end reached this µ-op; the
            // rest of the burst is never fetched.
            return;
        };
        if !wp.counted {
            self.stats.wrong_path.bursts += 1;
            self.wrong_path = Some(WrongPathEpisode {
                counted: true,
                ..wp
            });
        }
        self.stats.wrong_path.fetched += 1;

        // ---- Value-predictor probe --------------------------------------------
        // The front end cannot tell wrong-path fetches apart, so eligible
        // µ-ops probe the predictor exactly like correct-path ones: the probe
        // itself pollutes speculative state (in-flight records, speculative
        // last-value chains, the BeBoP speculative window) until the squash.
        let mut predicted: Option<u64> = None;
        if self.cfg.value_prediction && uop.vp_eligible() {
            let block_pc = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
            let new_block = self.last_block_pc != Some(block_pc);
            self.last_block_pc = Some(block_pc);
            let ctx = PredictCtx {
                seq: uop.seq,
                fetch_block_pc: block_pc,
                new_fetch_block: new_block,
                global_history: self.bpu.global_history(),
                path_history: self.bpu.path_history(),
                asid: uop.asid,
            };
            predicted = predictor.predict(&ctx, uop);
            if predicted.is_some() {
                self.stats.wrong_path.vp_predictions += 1;
            }
        }

        // ---- Speculative execution --------------------------------------------
        // µ-ops that reach the out-of-order engine before the resolve consume
        // an issue slot and a functional unit that correct-path µ-ops already
        // in flight can no longer use — the wasted-bandwidth effect — and
        // wrong-path loads access (and pollute) the real cache hierarchy.
        // Wrong-path branches never touch the branch predictor, and EOLE
        // early/late offload is not modelled on the wrong path.
        let dispatch_cycle = fetch_cycle + self.cfg.front_depth;
        if dispatch_cycle < wp.resolve {
            let kind = uop.uop.kind();
            let fu_lane = match kind.exec_class() {
                ExecClass::Alu => Lane::Alu,
                ExecClass::MulDiv => Lane::MulDiv,
                ExecClass::Fp => Lane::Fp,
                ExecClass::FpMulDiv => Lane::FpMulDiv,
                ExecClass::Load => Lane::Load,
                ExecClass::Store => Lane::Store,
            };
            let fu_cycle = self.pool.allocate(fu_lane, dispatch_cycle + 1);
            self.pool.allocate(Lane::Issue, fu_cycle);
            if kind == UopKind::Load {
                // Wrong-path loads go through the real hierarchy: they can
                // pollute the caches *or* act as inadvertent prefetches for
                // the correct path (both effects are well documented for
                // wrong-path execution), and they train the prefetcher.
                let addr = uop.mem.map(|m| m.addr).unwrap_or(0);
                let _ = self.mem.access(uop.pc, addr);
            }
            self.stats.wrong_path.executed += 1;

            // Pollution policy: a speculative-update predictor design applies
            // the bogus wrong-path result to its tables through the guarded
            // wrong-path path (out of retirement order, so the predictor must
            // not run its program-order bookkeeping on it).
            if wp_cfg.update_predictor && self.cfg.value_prediction && uop.vp_eligible() {
                predictor.train_wrong_path(uop, uop.value, predicted);
                self.stats.wrong_path.vp_trains += 1;
                // Arm the attribution window of the burst's own context only:
                // wrong-path µ-ops carry the ASID of the mispredicting
                // context, and its pollution must not be charged to whichever
                // context happens to commit next after a quantum boundary.
                self.pollution_window[SimStats::context_slot(uop.asid)] = POLLUTION_WINDOW;
            }
        }
    }

    /// Assigns a fetch cycle to a wrong-path µ-op, using the same fetch-group
    /// bandwidth rules as [`Pipeline::fetch`] but continuing *past* the
    /// redirect (the wrong path is exactly what the front end fetches before
    /// the resume point) and stopping at the branch's resolve cycle. Returns
    /// `None` when the µ-op would be fetched after the resolve — it is then
    /// never fetched at all.
    fn fetch_wrong_path(&mut self, uop: &DynUop, resolve: u64) -> Option<u64> {
        let block = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);
        let fits_width = self.group.uops < self.cfg.front_width;
        let known_block = self.group.contains(block);
        let fits_blocks = known_block
            || (self.group.num_blocks as usize) < self.cfg.fetch_blocks_per_cycle as usize;
        let mut cycle = self.group.cycle;
        if !(fits_width && fits_blocks) {
            cycle += 1;
        }
        if cycle > resolve {
            return None;
        }
        if cycle != self.group.cycle {
            self.group = FetchGroup::at_cycle(cycle);
        }
        if !self.group.contains(block) {
            self.group.push_block(block);
        }
        self.group.uops += 1;
        Some(cycle)
    }

    /// Assigns a fetch cycle to `uop`, modelling fetch-block grouping: up to
    /// `front_width` µ-ops per cycle drawn from at most `fetch_blocks_per_cycle`
    /// distinct fetch blocks (the paper fetches two 16-byte blocks per cycle,
    /// potentially over one taken branch).
    fn fetch(&mut self, uop: &DynUop) -> u64 {
        let block = fetch_block_pc(uop.pc, self.cfg.fetch_block_bytes);

        // A redirect forces a new group at the resume cycle.
        if self.fetch_resume > self.group.cycle {
            self.group = FetchGroup::at_cycle(self.fetch_resume);
        }

        let fits_width = self.group.uops < self.cfg.front_width;
        let known_block = self.group.contains(block);
        let fits_blocks = known_block
            || (self.group.num_blocks as usize) < self.cfg.fetch_blocks_per_cycle as usize;
        if !(fits_width && fits_blocks) {
            self.group = FetchGroup::at_cycle(self.group.cycle + 1);
        }
        if !self.group.contains(block) {
            self.group.push_block(block);
        }
        self.group.uops += 1;
        self.group.cycle
    }

    /// Serialises the pipeline's complete mutable state — branch predictor,
    /// caches, bandwidth pools, occupancy rings, register availability, fetch
    /// and commit state, deferred training, wrong-path episode and statistics
    /// — for checkpointing. Configuration-derived state is not written: the
    /// payload restores onto a freshly built pipeline of the same config.
    pub fn save_state(&self) -> Vec<u8> {
        // Checkpoints are only taken between `run_segment` calls, which
        // always flush the in-flight fetch group; a non-empty batch here
        // would silently drop µ-ops from the resumed run.
        assert!(
            self.batch.is_empty(),
            "pipeline state saved with a fetch group in flight"
        );
        snapshot(self)
    }

    /// Restores state saved by [`Pipeline::save_state`] onto a freshly built
    /// pipeline of the identical configuration. Rejects truncated, corrupt or
    /// shape-mismatched payloads without panicking (callers discard the
    /// pipeline on error).
    pub fn restore_state(&mut self, bytes: &[u8]) -> StateResult<()> {
        restore_snapshot(self, bytes)
    }

    /// Drops any fetch group left over from before a restore.
    fn check_restored(&mut self) -> StateResult<()> {
        self.batch.clear();
        Ok(())
    }

    /// Validates per-cycle pipeline invariants: bandwidth-pool conservation,
    /// in-order occupancy-ring release monotonicity (ROB/LQ/SQ release at
    /// commit, which is in order; the IQ releases at issue, which is not),
    /// program-ordered deferred-training records, and — every 4096 committed
    /// µ-ops — per-context statistics consistency. Panics with a structured
    /// `simcheck:` reason captured by the quarantine path.
    #[cfg(feature = "simcheck")]
    fn simcheck_step(&self) {
        // The cheap O(pending) check runs every µ-op; the O(ring) scans are
        // amortised to every 256 µ-ops. A conservation or monotonicity
        // violation mostly persists (a lane slot lives until its horizon
        // passes it, a ring entry until reuse), so the next gated scan
        // usually still sees it, and scanning eleven lane rings plus four
        // occupancy rings per committed µ-op would make the simcheck suite
        // orders of magnitude slower than plain debug.
        let mut prev: Option<u64> = None;
        for p in &self.pending_train {
            if let Some(q) = prev {
                assert!(
                    p.uop.seq > q,
                    "simcheck: pipeline: pending-train records out of program order (seq {} after {q})",
                    p.uop.seq
                );
            }
            prev = Some(p.uop.seq);
        }
        if self.stats.uops % 256 != 0 {
            return;
        }
        self.pool.check_conservation();
        self.rob.check_monotone("rob");
        self.lq.check_monotone("lq");
        self.sq.check_monotone("sq");
        if self.stats.uops % 4096 == 0 {
            assert!(
                self.stats.context_totals_consistent(),
                "simcheck: pipeline: per-context statistics diverged from aggregates at {} committed µ-ops",
                self.stats.uops
            );
        }
    }
}

snap!(PendingTrain {
    commit_cycle: u64,
    uop: DynUop,
    predicted: Option<u64>,
});
snap!(FetchGroup {
    cycle: u64,
    uops: u8,
    num_blocks: u8,
    blocks: [u64; MAX_FETCH_BLOCKS],
} validate check_restored);
snap!(WrongPathEpisode {
    resolve: u64,
    squash: Option<SquashInfo>,
    counted: bool,
});
snap!(Pipeline {
    bpu: BranchPredictorUnit,
    mem: MemoryHierarchy,
    pool: LanePool,
    rob: OccupancyRing,
    iq: OccupancyRing,
    lq: OccupancyRing,
    sq: OccupancyRing,
    reg_avail: Vec<u64>,
    reg_frontend: [bool],
    group: FetchGroup,
    fetch_resume: u64,
    last_block_pc: Option<u64>,
    last_commit: u64,
    pending_train: VecDeque<PendingTrain>,
    wrong_path: Option<WrongPathEpisode>,
    pollution_window: [u32; MAX_SIM_CONTEXTS],
    cur_asid: u8,
    stats: SimStats,
} validate check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vp_iface::{NoValuePredictor, PerfectValuePredictor};
    use bebop_trace::{TraceGenerator, WorkloadSpec};

    fn run(cfg: PipelineConfig, spec: &WorkloadSpec, n: u64) -> SimStats {
        let mut pred = NoValuePredictor;
        Pipeline::new(cfg).run(TraceGenerator::new(spec), &mut pred, n)
    }

    fn run_with(
        cfg: PipelineConfig,
        spec: &WorkloadSpec,
        n: u64,
        pred: &mut dyn ValuePredictor,
    ) -> SimStats {
        Pipeline::new(cfg).run(TraceGenerator::new(spec), pred, n)
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let spec = WorkloadSpec::named_demo("pipe");
        let stats = run(PipelineConfig::baseline_6_60(), &spec, 30_000);
        assert_eq!(stats.uops, 30_000);
        assert!(stats.cycles > 0);
        let ipc = stats.uop_ipc();
        assert!(ipc > 0.1, "unreasonably low IPC {ipc}");
        assert!(ipc <= 8.0, "IPC {ipc} exceeds the front-end width");
    }

    #[test]
    fn budget_is_not_truncated_to_32_bits() {
        // A budget above u32::MAX must not be shortened by an `as usize` cast
        // on 32-bit targets: with a finite 100-µop stream, a (1<<32)+50 budget
        // would truncate to 50 and commit half the stream. The u64 budget loop
        // commits the whole stream regardless of the target word size.
        let spec = WorkloadSpec::named_demo("pipe");
        let short: Vec<_> = TraceGenerator::new(&spec).take(100).collect();
        let mut pred = NoValuePredictor;
        let stats =
            Pipeline::new(PipelineConfig::baseline_6_60()).run(short, &mut pred, (1u64 << 32) + 50);
        assert_eq!(stats.uops, 100, "the whole finite stream must commit");
        // And an exact budget still stops on the dot.
        let exact = run(PipelineConfig::baseline_6_60(), &spec, 1_234);
        assert_eq!(exact.uops, 1_234);
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = WorkloadSpec::named_demo("pipe");
        let a = run(PipelineConfig::baseline_6_60(), &spec, 20_000);
        let b = run(PipelineConfig::baseline_6_60(), &spec, 20_000);
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_value_prediction_helps_serial_code() {
        let mut spec = WorkloadSpec::named_demo("pipe");
        spec.parallel_chains = 1; // fully serial: VP should break the chains
        let base = run(PipelineConfig::baseline_6_60(), &spec, 40_000);
        let mut perfect = PerfectValuePredictor;
        let vp = run_with(
            PipelineConfig::baseline_vp_6_60(),
            &spec,
            40_000,
            &mut perfect,
        );
        assert!(
            vp.cycles < base.cycles,
            "perfect VP should speed up a serial workload: base {} vs vp {}",
            base.cycles,
            vp.cycles
        );
        assert_eq!(vp.vp_flushes, 0);
        assert!(vp.vp.accuracy() > 0.999);
    }

    #[test]
    fn wider_issue_is_never_slower() {
        let spec = WorkloadSpec::new("ilp", 7);
        let narrow = {
            let mut c = PipelineConfig::baseline_6_60();
            c.issue_width = 2;
            c
        };
        let wide = PipelineConfig::baseline_6_60();
        let n = run(narrow, &spec, 30_000);
        let w = run(wide, &spec, 30_000);
        assert!(w.cycles <= n.cycles);
    }

    #[test]
    fn more_mispredictable_branches_cost_cycles() {
        let mut easy = WorkloadSpec::new("b", 5);
        easy.branches.random_frac = 0.0;
        easy.branches.pattern_frac = 1.0;
        easy.branches.biased_frac = 0.0;
        let mut hard = easy.clone();
        hard.branches.random_frac = 1.0;
        hard.branches.pattern_frac = 0.0;
        let e = run(PipelineConfig::baseline_6_60(), &easy, 30_000);
        let h = run(PipelineConfig::baseline_6_60(), &hard, 30_000);
        assert!(h.branch.cond_mispredicts > e.branch.cond_mispredicts);
        assert!(h.cycles > e.cycles);
    }

    #[test]
    fn larger_working_set_is_slower() {
        let mut small = WorkloadSpec::new("m", 13);
        small.memory.working_set_bytes = 16 * 1024;
        small.memory.streaming_frac = 0.0;
        small.memory.random_frac = 1.0;
        small.memory.pointer_chase_frac = 0.0;
        let mut big = small.clone();
        big.memory.working_set_bytes = 64 * 1024 * 1024;
        let s = run(PipelineConfig::baseline_6_60(), &small, 30_000);
        let b = run(PipelineConfig::baseline_6_60(), &big, 30_000);
        assert!(b.mem.l2_misses > s.mem.l2_misses);
        assert!(b.cycles > s.cycles);
    }

    #[test]
    fn eole_with_perfect_vp_matches_wider_baseline_vp() {
        // The EOLE result from the paper: a 4-issue EOLE pipeline performs about as
        // well as the 6-issue VP baseline because early/late execution offloads the
        // OoO engine. Use an integer mix (mostly single-cycle ALU µ-ops), which is
        // what early/late execution can actually offload.
        let spec = WorkloadSpec::new("eole", 17);
        let mut p1 = PerfectValuePredictor;
        let mut p2 = PerfectValuePredictor;
        let base_vp = run_with(PipelineConfig::baseline_vp_6_60(), &spec, 40_000, &mut p1);
        let eole = run_with(PipelineConfig::eole_4_60(), &spec, 40_000, &mut p2);
        let ratio = base_vp.cycles as f64 / eole.cycles as f64;
        assert!(
            ratio > 0.9,
            "EOLE_4_60 should be within ~10% of Baseline_VP_6_60, ratio {ratio}"
        );
        assert!(eole.eole.early_executed + eole.eole.late_executed > 0);
    }

    #[test]
    fn value_mispredictions_hurt() {
        // A predictor that always predicts zero: almost always wrong, and each use
        // costs a commit-time squash, so it must be slower than no prediction.
        #[derive(Debug)]
        struct AlwaysZero;
        impl ValuePredictor for AlwaysZero {
            fn name(&self) -> &str {
                "zero"
            }
            fn predict(&mut self, _c: &PredictCtx, _u: &DynUop) -> Option<u64> {
                Some(0)
            }
            fn train(&mut self, _u: &DynUop, _a: u64, _p: Option<u64>) {}
        }
        let spec = WorkloadSpec::new("vpbad", 21);
        let base = run(PipelineConfig::baseline_6_60(), &spec, 20_000);
        let mut zero = AlwaysZero;
        let bad = run_with(PipelineConfig::baseline_vp_6_60(), &spec, 20_000, &mut zero);
        assert!(bad.vp_flushes > 0);
        assert!(bad.cycles > base.cycles);
    }

    #[test]
    fn free_load_immediates_are_counted() {
        let mut spec = WorkloadSpec::new("imm", 3);
        spec.mix.load_imm = 0.5;
        let mut pred = NoValuePredictor;
        let stats = Pipeline::new(PipelineConfig::eole_4_60()).run(
            TraceGenerator::new(&spec),
            &mut pred,
            20_000,
        );
        assert!(stats.vp.free_load_immediates > 0);
    }

    #[test]
    fn wrong_path_mode_on_a_plain_trace_changes_nothing() {
        // A trace without wrong-path bursts must simulate bit-identically
        // whether or not the pipeline has wrong-path execution enabled: with
        // no burst to fetch, the deferred squash is the only difference, and
        // it reaches the predictor at the same point in its call sequence.
        let spec = WorkloadSpec::new("wp-plain", 31);
        let mut cfg = PipelineConfig::baseline_vp_6_60();
        let mut off_pred = crate::vp_iface::PerfectValuePredictor;
        let off = Pipeline::new(cfg.clone()).run(TraceGenerator::new(&spec), &mut off_pred, 25_000);
        cfg = cfg.with_wrong_path(true);
        let mut on_pred = crate::vp_iface::PerfectValuePredictor;
        let on = Pipeline::new(cfg).run(TraceGenerator::new(&spec), &mut on_pred, 25_000);
        assert_eq!(off, on);
        assert_eq!(on.wrong_path, crate::stats::WrongPathStats::default());
    }

    #[test]
    fn wrong_path_mode_off_skips_bursts_for_free() {
        let spec = WorkloadSpec::new("wp-skip", 33).with_wrong_path(8);
        let stats = run(PipelineConfig::baseline_6_60(), &spec, 25_000);
        assert_eq!(stats.uops, 25_000, "budget counts committed µ-ops only");
        assert_eq!(stats.wrong_path, crate::stats::WrongPathStats::default());
    }

    #[test]
    fn wrong_path_execution_fetches_executes_and_costs_bandwidth() {
        let mut spec = WorkloadSpec::new("wp-exec", 35).with_wrong_path(8);
        // Plenty of mispredictions so bursts actually launch.
        spec.branches.random_frac = 0.5;
        let base_cfg = PipelineConfig::baseline_6_60();
        let off = run(base_cfg.clone(), &spec, 25_000);
        let on = run(base_cfg.with_wrong_path(false), &spec, 25_000);
        assert_eq!(on.uops, 25_000);
        assert!(on.wrong_path.bursts > 0, "mispredicted bursts must launch");
        assert!(on.wrong_path.fetched >= on.wrong_path.bursts);
        assert!(
            on.wrong_path.executed > 0,
            "some µ-ops must reach the OoO engine"
        );
        assert!(
            on.wrong_path.executed <= on.wrong_path.fetched,
            "executed µ-ops are a subset of fetched ones"
        );
        // Branch flushes (direction or target mispredictions) are the only
        // launch sites.
        assert!(on.wrong_path.bursts <= on.branch_flushes);
        // Wrong-path loads went through the real cache hierarchy (pollution /
        // inadvertent prefetch), so the timing genuinely changed. Note the
        // sign is workload dependent: wasted issue bandwidth slows runs down,
        // cache warming by wrong-path loads can speed them up.
        assert_ne!(on.cycles, off.cycles);
        assert!(on.mem.l1d_accesses > off.mem.l1d_accesses);
        // Committed-path statistics stay committed-only.
        assert_eq!(on.uops, off.uops);
        assert_eq!(on.insts, off.insts);
    }

    #[test]
    fn wrong_path_alu_bursts_only_cost_cycles() {
        // With no memory µ-ops in the mix there is no cache channel: the only
        // wrong-path effect on the correct path is consumed issue/FU
        // bandwidth, which can never make the run faster.
        let mut spec = WorkloadSpec::new("wp-alu", 39).with_wrong_path(8);
        spec.branches.random_frac = 0.5;
        spec.mix.load = 0.0;
        spec.mix.store = 0.0;
        spec.mix.load_op_frac = 0.0;
        let base_cfg = PipelineConfig::baseline_6_60();
        let off = run(base_cfg.clone(), &spec, 25_000);
        let on = run(base_cfg.with_wrong_path(false), &spec, 25_000);
        assert!(on.wrong_path.executed > 0);
        assert_eq!(on.mem.l1d_accesses, off.mem.l1d_accesses);
        assert!(
            on.cycles >= off.cycles,
            "ALU-only wrong path cannot speed the run up: {} < {}",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn wrong_path_pollution_policy_gates_predictor_updates() {
        let mut spec = WorkloadSpec::new("wp-pol", 37).with_wrong_path(8);
        spec.branches.random_frac = 0.4;
        let base = PipelineConfig::baseline_vp_6_60();
        let mut p1 = PerfectValuePredictor;
        let clean = run_with(base.clone().with_wrong_path(false), &spec, 25_000, &mut p1);
        let mut p2 = PerfectValuePredictor;
        let polluted = run_with(base.with_wrong_path(true), &spec, 25_000, &mut p2);
        assert_eq!(clean.wrong_path.vp_trains, 0, "clean policy must not train");
        assert!(
            polluted.wrong_path.vp_trains > 0,
            "polluting policy must deliver wrong-path trains"
        );
        // The perfect predictor predicts every eligible µ-op, wrong-path ones
        // included, so probes are visible in the fetched-side stats.
        assert!(polluted.wrong_path.vp_predictions > 0);
        assert!(clean.wrong_path.vp_predictions > 0);
    }

    #[test]
    fn commit_respects_minimum_depth() {
        let spec = WorkloadSpec::named_demo("depth");
        let stats = run(PipelineConfig::baseline_6_60(), &spec, 1_000);
        // Even a tiny run pays at least the fetch-to-commit depth.
        assert!(stats.cycles >= PipelineConfig::baseline_6_60().fetch_to_commit);
    }
}
