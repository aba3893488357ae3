//! The trace walker: turns a [`WorkloadSpec`] into an unbounded, deterministic
//! stream of dynamic µ-ops.
//!
//! **Changing the stream this module (or anything it calls) produces for an
//! unchanged specification — RNG consumption order, pattern sampling, program
//! construction — requires bumping [`crate::TRACE_STREAM_VERSION`]**, which
//! salts the persistent trace store's cache key: otherwise recordings made by
//! the old behaviour would be silently replayed as if nothing changed.

use crate::memory::{AddressPattern, AddressState};
use crate::value::{ValuePattern, ValueState};
use crate::workload::WorkloadSpec;
use bebop_isa::{BasicBlockId, BranchKind, DynUop, Program, SeqNum, Terminator, Uop, UopKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Identity of a static µ-op inside the program: (block, instruction, µ-op index).
type StaticUopId = (usize, usize, usize);

/// How the direction of a data-dependent conditional branch evolves.
#[derive(Debug, Clone)]
enum BranchBehavior {
    /// Loop back-edge with the given trip count: taken `trip - 1` times, then not taken.
    BackEdge { trip: u64 },
    /// Repeating direction pattern (predictable by a history-based predictor).
    Pattern { dirs: Vec<bool> },
    /// Independently random with the given taken probability.
    Bernoulli { p_taken: f64 },
}

/// Per-static-branch dynamic state.
#[derive(Debug, Clone, Default)]
struct BranchState {
    executions: u64,
}

/// An unbounded iterator of [`DynUop`] records for one workload.
///
/// The generator is fully deterministic: two generators built from equal
/// [`WorkloadSpec`]s produce identical streams. This is what allows every predictor
/// and pipeline configuration in the evaluation to be compared on exactly the same
/// dynamic instruction stream, mirroring the fixed Simpoint regions of the paper.
///
/// # Example
///
/// ```
/// use bebop_trace::{TraceGenerator, WorkloadSpec};
/// let spec = WorkloadSpec::named_demo("kernel");
/// let uops: Vec<_> = TraceGenerator::new(&spec).take(100).collect();
/// assert!(uops.iter().any(|u| u.uop.kind().is_branch()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    program: Program,
    value_states: BTreeMap<StaticUopId, ValueState>,
    addr_states: BTreeMap<StaticUopId, AddressState>,
    branch_behaviors: BTreeMap<usize, BranchBehavior>,
    branch_states: BTreeMap<usize, BranchState>,
    rng: SmallRng,
    seq: SeqNum,
    ghr: u64,
    cur_bb: BasicBlockId,
    pending: VecDeque<DynUop>,
    /// Wrong-path µ-ops emitted after each conditional branch (0 = disabled).
    wrong_path_burst: u32,
    /// Dedicated RNG for wrong-path values/addresses/directions. Wrong-path
    /// emission must never consume from `rng` or mutate the per-µop value and
    /// address states: the correct-path sub-stream (everything but the
    /// sequence numbering, which counts every stream slot) has to stay
    /// identical to a generation with the burst disabled.
    wp_rng: SmallRng,
    /// Working-set bound for wrong-path load/store addresses.
    wp_working_set: u64,
}

impl TraceGenerator {
    /// Builds the static program for `spec`, assigns value/address/branch behaviour
    /// to every static µ-op, and returns the walker positioned at the program entry.
    pub fn new(spec: &WorkloadSpec) -> Self {
        let program = spec.build_program();
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x7ace_0002);

        let mut value_states = BTreeMap::new();
        let mut addr_states = BTreeMap::new();
        let mut branch_behaviors = BTreeMap::new();

        for (bb_id, block, _pc) in program.iter() {
            for (inst_idx, inst) in block.insts().iter().enumerate() {
                for (uop_idx, uop) in inst.uops().iter().enumerate() {
                    let id = (bb_id.0, inst_idx, uop_idx);
                    // Memory behaviour is decided first so load-value predictability
                    // can be correlated with it: a pointer-chase load produces the
                    // next (essentially random) pointer, and irregularly-indexed
                    // loads are mostly unpredictable too. Without this correlation a
                    // "predictable" chase load would unrealistically break serialised
                    // DRAM-miss chains and inflate value-prediction gains on
                    // memory-bound codes (mcf, omnetpp, ...).
                    let addr_pattern = if uop.kind().is_mem() {
                        let pattern = Self::sample_addr_pattern(spec, &mut rng);
                        addr_states.insert(
                            id,
                            AddressState::new(
                                pattern,
                                0x1000_0000,
                                spec.memory.working_set_bytes.max(64),
                            ),
                        );
                        Some(pattern)
                    } else {
                        None
                    };
                    if let Some(dst) = uop.dst() {
                        if !dst.is_flags() {
                            let pattern = if uop.kind() == UopKind::LoadImm {
                                // Immediates are constants of the static code.
                                ValuePattern::Constant(rng.gen::<u32>() as u64)
                            } else {
                                match addr_pattern {
                                    Some(AddressPattern::PointerChase) => ValuePattern::Random,
                                    Some(AddressPattern::Random) if rng.gen_bool(0.7) => {
                                        ValuePattern::Random
                                    }
                                    _ => spec.values.sample(&mut rng),
                                }
                            };
                            value_states.insert(id, ValueState::new(pattern));
                        }
                    }
                }
            }

            // Branch behaviour for the block terminator.
            match block.terminator() {
                Terminator::Conditional { taken, .. } => {
                    let behavior = if taken.0 <= bb_id.0 {
                        // Backward taken edge: a loop back-edge with the spec's trip count.
                        BranchBehavior::BackEdge {
                            trip: spec.loops.trip_count.max(2),
                        }
                    } else {
                        Self::sample_branch_behavior(spec, &mut rng)
                    };
                    branch_behaviors.insert(bb_id.0, behavior);
                }
                Terminator::FallThrough(_) | Terminator::Jump(_) | Terminator::Exit => {}
            }
        }

        let entry = program.entry();
        TraceGenerator {
            program,
            value_states,
            addr_states,
            branch_behaviors,
            branch_states: BTreeMap::new(),
            rng,
            seq: 0,
            ghr: 0,
            cur_bb: entry,
            pending: VecDeque::new(),
            wrong_path_burst: spec.wrong_path.burst_uops,
            wp_rng: SmallRng::seed_from_u64(spec.seed ^ 0x7ace_0003),
            wp_working_set: spec.memory.working_set_bytes.max(64),
        }
    }

    /// The static program being walked.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn sample_addr_pattern(spec: &WorkloadSpec, rng: &mut SmallRng) -> AddressPattern {
        let m = &spec.memory;
        let total = (m.streaming_frac + m.random_frac + m.pointer_chase_frac).max(1e-12);
        let x = rng.gen::<f64>() * total;
        if x < m.streaming_frac {
            AddressPattern::Streaming {
                base: rng.gen_range(0..m.working_set_bytes.max(64)),
                stride: m.stream_stride.max(1),
            }
        } else if x < m.streaming_frac + m.random_frac {
            AddressPattern::Random
        } else {
            AddressPattern::PointerChase
        }
    }

    fn sample_branch_behavior(spec: &WorkloadSpec, rng: &mut SmallRng) -> BranchBehavior {
        let b = &spec.branches;
        let total = (b.pattern_frac + b.biased_frac + b.random_frac).max(1e-12);
        let x = rng.gen::<f64>() * total;
        if x < b.pattern_frac {
            let len = rng.gen_range(2..=8usize);
            let dirs = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            BranchBehavior::Pattern { dirs }
        } else if x < b.pattern_frac + b.biased_frac {
            BranchBehavior::Bernoulli {
                p_taken: b.taken_bias.clamp(0.0, 1.0),
            }
        } else {
            BranchBehavior::Bernoulli { p_taken: 0.5 }
        }
    }

    /// Decides the direction of the conditional branch terminating `bb`.
    fn decide_branch(&mut self, bb: usize) -> bool {
        let state = self.branch_states.entry(bb).or_default();
        let n = state.executions;
        state.executions += 1;
        match self
            .branch_behaviors
            .get(&bb)
            // INVARIANT: new() populates behaviour for every conditional
            // block id before the first decide_branch call.
            .expect("conditional block must have branch behaviour")
        {
            BranchBehavior::BackEdge { trip } => (n + 1) % *trip != 0,
            // CAST: the modulo bounds the index below dirs.len(), which fits usize.
            BranchBehavior::Pattern { dirs } => dirs[(n % dirs.len() as u64) as usize],
            BranchBehavior::Bernoulli { p_taken } => self.rng.gen_bool(*p_taken),
        }
    }

    /// Emits the dynamic µ-ops of one whole basic block into `pending` and advances
    /// `cur_bb` to the dynamic successor.
    fn emit_block(&mut self) {
        let bb = self.cur_bb;
        // Clone the (small) block so the walk below can borrow `self` mutably for
        // branch decisions and value generation.
        let block = self.program.block(bb).clone();
        let base_pc = self.program.block_pc(bb);
        let terminator = block.terminator();
        let num_insts = block.insts().len();

        // Pre-compute the control-flow decision for the terminating branch (if any)
        // because the flag-producing µ-op that precedes it carries the same value.
        let (branch_taken, next_bb): (Option<bool>, BasicBlockId) = match terminator {
            Terminator::Conditional { taken, not_taken } => {
                let t = self.decide_branch(bb.0);
                (Some(t), if t { taken } else { not_taken })
            }
            Terminator::Jump(t) => (Some(true), t),
            Terminator::FallThrough(t) => (None, t),
            Terminator::Exit => (None, self.program.entry()),
        };

        let mut pc = base_pc;
        let mut new_uops: Vec<DynUop> = Vec::with_capacity(block.num_uops());
        for (inst_idx, inst) in block.insts().iter().enumerate() {
            let is_terminator_inst = inst_idx + 1 == num_insts && inst.is_branch();
            // CAST: an instruction decodes to at most a handful of µ-ops
            // (the encoding caps it well below 256).
            let num_uops = inst.uops().len() as u8;
            for (uop_idx, uop) in inst.uops().iter().enumerate() {
                let id = (bb.0, inst_idx, uop_idx);
                let value = self.value_for(id, *uop, is_terminator_inst, branch_taken);
                let mut d = DynUop::new(
                    self.seq,
                    pc,
                    inst.len_bytes(),
                    uop_idx as u8,
                    num_uops,
                    *uop,
                    value,
                );
                self.seq += 1;
                if uop.kind().is_mem() {
                    let addr = self
                        .addr_states
                        // INVARIANT: new() creates address state for every
                        // static memory µ-op id in the program.
                        .get_mut(&id)
                        .expect("memory µ-op must have address state")
                        .next_addr(&mut self.rng);
                    d = d.with_mem(addr, 8);
                }
                if uop.kind().is_branch() && is_terminator_inst {
                    let taken = branch_taken.unwrap_or(false);
                    let (kind, target) = match terminator {
                        Terminator::Conditional {
                            taken: t,
                            not_taken,
                        } => (
                            BranchKind::Conditional,
                            self.program.block_pc(if taken { t } else { not_taken }),
                        ),
                        Terminator::Jump(t) => {
                            (BranchKind::Unconditional, self.program.block_pc(t))
                        }
                        _ => (BranchKind::Conditional, pc + u64::from(inst.len_bytes())),
                    };
                    d = d.with_branch(kind, taken, target);
                    if kind == BranchKind::Conditional {
                        self.ghr = (self.ghr << 1) | u64::from(taken);
                    }
                }
                new_uops.push(d);
            }
            pc += u64::from(inst.len_bytes());
        }
        self.pending.extend(new_uops);
        self.cur_bb = next_bb;

        // Wrong-path burst: the µ-ops the front end would fetch if it
        // mispredicted this conditional branch, i.e. the alternate successor's
        // path. Emitted after the branch so a wrong-path-aware pipeline can
        // fetch them between the branch and its resolution.
        if self.wrong_path_burst > 0 {
            if let Terminator::Conditional { taken, not_taken } = terminator {
                let wrong_target = if branch_taken.unwrap_or(false) {
                    not_taken
                } else {
                    taken
                };
                self.emit_wrong_path_burst(wrong_target);
            }
        }
    }

    /// Emits up to `wrong_path_burst` wrong-path µ-ops into `pending`, walking
    /// the static program from `start` (the alternate successor of a
    /// conditional branch).
    ///
    /// The walk is purely static plus the dedicated wrong-path RNG: values,
    /// addresses and wrong-path branch directions come from `wp_rng`, and none
    /// of the correct-path state (value/address/branch states, `rng`, `ghr`)
    /// is touched, so enabling the burst leaves every correct-path µ-op's
    /// PC/value/address/branch fields unchanged. Sequence numbers stay
    /// contiguous with the surrounding stream (wrong-path µ-ops occupy stream
    /// slots like any other).
    fn emit_wrong_path_burst(&mut self, start: BasicBlockId) {
        let budget = self.wrong_path_burst;
        let mut emitted: u32 = 0;
        let mut bb = start;
        'blocks: while emitted < budget {
            let block = self.program.block(bb).clone();
            let base_pc = self.program.block_pc(bb);
            let terminator = block.terminator();
            let num_insts = block.insts().len();
            // The direction a wrong-path conditional "takes" (it is itself
            // speculative fiction, so an unbiased coin is enough).
            let wp_taken =
                matches!(terminator, Terminator::Conditional { .. }) && self.wp_rng.gen_bool(0.5);

            let mut pc = base_pc;
            for (inst_idx, inst) in block.insts().iter().enumerate() {
                let is_terminator_inst = inst_idx + 1 == num_insts && inst.is_branch();
                // CAST: same bound as the correct-path emit loop — µ-ops per
                // instruction are capped far below 256 by the encoding.
                let num_uops = inst.uops().len() as u8;
                for (uop_idx, uop) in inst.uops().iter().enumerate() {
                    if emitted == budget {
                        break 'blocks;
                    }
                    let value = if uop.dst().is_some() {
                        // Bogus wrong-path results; mostly small values so
                        // polluting trains look like plausible data.
                        u64::from(self.wp_rng.gen::<u32>())
                    } else {
                        0
                    };
                    let mut d = DynUop::new(
                        self.seq,
                        pc,
                        inst.len_bytes(),
                        uop_idx as u8,
                        num_uops,
                        *uop,
                        value,
                    )
                    .with_wrong_path();
                    self.seq += 1;
                    if uop.kind().is_mem() {
                        let addr = 0x1000_0000 + self.wp_rng.gen_range(0..self.wp_working_set);
                        d = d.with_mem(addr, 8);
                    }
                    if uop.kind().is_branch() && is_terminator_inst {
                        let (kind, taken, target) = match terminator {
                            Terminator::Conditional { taken, not_taken } => (
                                BranchKind::Conditional,
                                wp_taken,
                                self.program
                                    .block_pc(if wp_taken { taken } else { not_taken }),
                            ),
                            Terminator::Jump(t) => {
                                (BranchKind::Unconditional, true, self.program.block_pc(t))
                            }
                            _ => (
                                BranchKind::Conditional,
                                false,
                                pc + u64::from(inst.len_bytes()),
                            ),
                        };
                        d = d.with_branch(kind, taken, target);
                    }
                    self.pending.push_back(d);
                    emitted += 1;
                }
                pc += u64::from(inst.len_bytes());
            }

            bb = match terminator {
                Terminator::Conditional { taken, not_taken } => {
                    if wp_taken {
                        taken
                    } else {
                        not_taken
                    }
                }
                Terminator::FallThrough(t) | Terminator::Jump(t) => t,
                Terminator::Exit => self.program.entry(),
            };
        }
    }

    /// Produces the architectural value of one µ-op instance.
    fn value_for(
        &mut self,
        id: StaticUopId,
        uop: Uop,
        is_terminator_inst: bool,
        branch_taken: Option<bool>,
    ) -> u64 {
        match uop.dst() {
            Some(d) if d.is_flags() && is_terminator_inst => {
                // The flags feeding the terminating branch encode its direction; other
                // flag producers are don't-cares.
                u64::from(branch_taken.unwrap_or(false))
            }
            Some(d) if d.is_flags() => 0,
            Some(_) => {
                let ghr = self.ghr;
                match self.value_states.get_mut(&id) {
                    Some(vs) => vs.next_value(ghr, &mut self.rng),
                    None => 0,
                }
            }
            None => 0,
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = DynUop;

    fn next(&mut self) -> Option<DynUop> {
        while self.pending.is_empty() {
            self.emit_block();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueProfile;
    use crate::workload::{BranchProfile, WorkloadSpec};
    use std::collections::BTreeMap as Map;

    fn demo_spec() -> WorkloadSpec {
        WorkloadSpec::named_demo("gen-test")
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = demo_spec();
        let a: Vec<_> = TraceGenerator::new(&spec).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(&spec).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let spec = demo_spec();
        for (i, u) in TraceGenerator::new(&spec).take(2000).enumerate() {
            assert_eq!(u.seq, i as u64);
        }
    }

    #[test]
    fn pc_continuity_at_uop_granularity() {
        let spec = demo_spec();
        let trace: Vec<_> = TraceGenerator::new(&spec).take(20_000).collect();
        for w in trace.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.is_last_uop() {
                assert_eq!(b.pc, a.next_pc(), "discontinuity between {a} and {b}");
                assert_eq!(b.uop_idx, 0);
            } else {
                assert_eq!(b.pc, a.pc, "µ-ops of one instruction must share a PC");
                assert_eq!(b.uop_idx, a.uop_idx + 1);
            }
        }
    }

    #[test]
    fn strided_workload_values_are_strided() {
        let mut spec = demo_spec();
        spec.values = ValueProfile::all_strided();
        let trace: Vec<_> = TraceGenerator::new(&spec).take(50_000).collect();
        // Group values by static µ-op (pc, uop_idx) and check most follow a stride.
        let mut by_static: Map<(u64, u8), Vec<u64>> = Map::new();
        for u in &trace {
            if u.vp_eligible() && u.uop.dst().is_some() {
                by_static
                    .entry((u.pc, u.uop_idx))
                    .or_default()
                    .push(u.value);
            }
        }
        let mut strided = 0usize;
        let mut total = 0usize;
        for (_, vals) in by_static.iter().filter(|(_, v)| v.len() > 4) {
            total += 1;
            let d0 = vals[1].wrapping_sub(vals[0]);
            if vals.windows(2).all(|w| w[1].wrapping_sub(w[0]) == d0) {
                strided += 1;
            }
        }
        assert!(total > 0);
        assert!(
            strided as f64 / total as f64 > 0.6,
            "expected mostly strided static µ-ops, got {strided}/{total}"
        );
    }

    #[test]
    fn branch_directions_follow_loop_trip_counts() {
        let mut spec = demo_spec();
        spec.branches = BranchProfile::predictable();
        spec.loops.diamond_prob = 0.0;
        spec.loops.trip_count = 8;
        let trace: Vec<_> = TraceGenerator::new(&spec).take(30_000).collect();
        let branches: Vec<_> = trace
            .iter()
            .filter(|u| u.branch.is_some() && u.branch.unwrap().kind == BranchKind::Conditional)
            .collect();
        assert!(!branches.is_empty());
        let taken = branches
            .iter()
            .filter(|u| u.branch.is_some_and(|i| i.taken))
            .count();
        let ratio = taken as f64 / branches.len() as f64;
        // Trip count 8 => 7/8 of back-edges taken.
        assert!(
            (ratio - 7.0 / 8.0).abs() < 0.05,
            "taken ratio {ratio} does not match trip count"
        );
    }

    #[test]
    fn memory_uops_have_addresses_and_branches_have_targets() {
        let spec = WorkloadSpec::new("mixed", 99);
        for u in TraceGenerator::new(&spec).take(20_000) {
            if u.uop.kind().is_mem() {
                assert!(u.mem.is_some(), "memory µ-op without address: {u}");
            }
            if u.uop.kind().is_branch() && u.is_last_uop() {
                // Terminator branches carry outcome information.
                assert!(u.branch.is_some(), "terminator branch without outcome: {u}");
            }
        }
    }

    #[test]
    fn wrong_path_bursts_follow_every_conditional_branch() {
        let spec = WorkloadSpec::new("wp", 5).with_wrong_path(6);
        let trace: Vec<_> = TraceGenerator::new(&spec).take(30_000).collect();
        let wp_count = trace.iter().filter(|u| u.wrong_path).count();
        assert!(wp_count > 0, "wrong-path µ-ops must be emitted");
        // Every conditional correct-path branch is immediately followed by a
        // wrong-path µ-op whose PC is the branch's alternate successor.
        for w in trace.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if !a.wrong_path
                && a.branch.map(|i| i.kind) == Some(BranchKind::Conditional)
                && a.is_last_uop()
            {
                assert!(b.wrong_path, "no burst after conditional branch {a}");
                if a.branch.is_some_and(|i| i.taken) {
                    // Alternate of a taken branch is the fall-through path
                    // (the not-taken successor is laid out next in memory).
                    assert_eq!(
                        b.pc,
                        a.fallthrough_pc(),
                        "burst must start at the alternate"
                    );
                }
            }
        }
        // Sequence numbers remain contiguous over the whole stream.
        for (i, u) in trace.iter().enumerate() {
            assert_eq!(u.seq, i as u64);
        }
    }

    #[test]
    fn wrong_path_emission_leaves_the_correct_path_unchanged() {
        let base = WorkloadSpec::new("wp-id", 9);
        let with_wp = base.clone().with_wrong_path(8);
        let plain: Vec<_> = TraceGenerator::new(&base).take(20_000).collect();
        let correct: Vec<_> = TraceGenerator::new(&with_wp)
            .filter(|u| !u.wrong_path)
            .take(20_000)
            .collect();
        for (a, b) in plain.iter().zip(&correct) {
            // Identical apart from the sequence number (wrong-path µ-ops
            // occupy stream slots).
            let mut b2 = *b;
            b2.seq = a.seq;
            assert_eq!(*a, b2, "correct path diverged at #{}", a.seq);
        }
    }

    #[test]
    fn disabled_wrong_path_emits_nothing_and_matches_bitwise() {
        let spec = demo_spec();
        assert!(!spec.wrong_path.is_enabled());
        let a: Vec<_> = TraceGenerator::new(&spec).take(10_000).collect();
        assert!(a.iter().all(|u| !u.wrong_path));
        let mut off = spec.clone();
        off.wrong_path = crate::workload::WrongPathProfile::disabled();
        let b: Vec<_> = TraceGenerator::new(&off).take(10_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = TraceGenerator::new(&WorkloadSpec::new("a", 1))
            .take(1000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(&WorkloadSpec::new("a", 2))
            .take(1000)
            .collect();
        assert_ne!(a, b);
    }
}
