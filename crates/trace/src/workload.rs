//! Workload specifications and static program construction.

use crate::value::ValueProfile;
use bebop_isa::{ArchReg, BasicBlockId, Program, ProgramBuilder, StaticInst, Terminator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fractions of the non-branch instruction mix (remainder is plain integer ALU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstMix {
    /// Fraction of loads (including load-op instructions).
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of floating-point adds/multiplies.
    pub fp: f64,
    /// Fraction of integer multiplies.
    pub mul: f64,
    /// Fraction of integer divides.
    pub div: f64,
    /// Fraction of load-immediate instructions (handled for free by BeBoP).
    pub load_imm: f64,
    /// Fraction of loads that are load-op instructions producing two results.
    pub load_op_frac: f64,
}

impl InstMix {
    /// A typical integer mix.
    pub fn int_default() -> Self {
        InstMix {
            load: 0.25,
            store: 0.12,
            fp: 0.0,
            mul: 0.02,
            div: 0.005,
            load_imm: 0.08,
            load_op_frac: 0.3,
        }
    }

    /// A typical floating-point mix.
    pub fn fp_default() -> Self {
        InstMix {
            load: 0.28,
            store: 0.12,
            fp: 0.35,
            mul: 0.02,
            div: 0.01,
            load_imm: 0.04,
            load_op_frac: 0.2,
        }
    }
}

/// Shape of the loop structure of the synthetic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopProfile {
    /// Number of distinct loop regions (distinct static code) chained in sequence.
    pub regions: usize,
    /// Macro-instructions per loop body (excluding the back-edge compare-and-branch).
    pub body_insts: usize,
    /// Iterations executed each time a loop region is entered.
    pub trip_count: u64,
    /// Probability that a region contains a data-dependent if-then diamond.
    pub diamond_prob: f64,
}

impl LoopProfile {
    /// Small, tight loops (high PC reuse; loop bodies fit in the instruction window).
    pub fn tight() -> Self {
        LoopProfile {
            regions: 4,
            body_insts: 10,
            trip_count: 64,
            diamond_prob: 0.25,
        }
    }

    /// Larger bodies with more static code.
    pub fn large() -> Self {
        LoopProfile {
            regions: 12,
            body_insts: 28,
            trip_count: 24,
            diamond_prob: 0.6,
        }
    }
}

/// Conditional-branch (non-loop) behaviour of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProfile {
    /// Fraction of data-dependent branches following a short repeating pattern
    /// (predictable by a history-based branch predictor such as TAGE).
    pub pattern_frac: f64,
    /// Fraction of branches taken with a strong static bias.
    pub biased_frac: f64,
    /// Fraction of essentially random branches (these produce most mispredictions).
    pub random_frac: f64,
    /// Taken probability of biased branches.
    pub taken_bias: f64,
}

impl BranchProfile {
    /// Highly predictable control flow (loop-dominated FP codes).
    pub fn predictable() -> Self {
        BranchProfile {
            pattern_frac: 0.7,
            biased_frac: 0.28,
            random_frac: 0.02,
            taken_bias: 0.9,
        }
    }

    /// Branchy integer codes with a sizeable unpredictable fraction.
    pub fn branchy() -> Self {
        BranchProfile {
            pattern_frac: 0.35,
            biased_frac: 0.45,
            random_frac: 0.20,
            taken_bias: 0.75,
        }
    }
}

/// Memory behaviour of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Total data working set in bytes (governs cache hit rates).
    pub working_set_bytes: u64,
    /// Fraction of static memory µ-ops that stream sequentially.
    pub streaming_frac: f64,
    /// Fraction with uniformly random addresses.
    pub random_frac: f64,
    /// Fraction behaving like dependent pointer chases.
    pub pointer_chase_frac: f64,
    /// Stride, in bytes, of streaming accesses.
    pub stream_stride: u64,
}

impl MemoryProfile {
    /// Cache-resident working set.
    pub fn cache_friendly() -> Self {
        MemoryProfile {
            working_set_bytes: 24 * 1024,
            streaming_frac: 0.8,
            random_frac: 0.2,
            pointer_chase_frac: 0.0,
            stream_stride: 8,
        }
    }

    /// Streaming through a large array (misses covered by the prefetcher).
    pub fn streaming() -> Self {
        MemoryProfile {
            working_set_bytes: 8 * 1024 * 1024,
            streaming_frac: 0.9,
            random_frac: 0.1,
            pointer_chase_frac: 0.0,
            stream_stride: 8,
        }
    }

    /// Large, irregular working set (memory bound).
    pub fn irregular() -> Self {
        MemoryProfile {
            working_set_bytes: 32 * 1024 * 1024,
            streaming_frac: 0.2,
            random_frac: 0.5,
            pointer_chase_frac: 0.3,
            stream_stride: 8,
        }
    }
}

/// Wrong-path emission profile: how many wrong-path µ-ops the trace generator
/// synthesises after every conditional branch.
///
/// When `burst_uops > 0`, each conditional branch µ-op is followed in the
/// stream by a burst of µ-ops from the *alternate* (not-actually-taken) path,
/// tagged [`bebop_isa::DynUop::wrong_path`]. The burst is deterministic per
/// seed and drawn from a dedicated RNG, so every correct-path µ-op of the
/// stream is identical (apart from its sequence number, which counts stream
/// slots) to the stream of the same specification with wrong-path emission
/// disabled. Pipelines without wrong-path modelling skip the burst at
/// zero cost; with it enabled they fetch and speculatively execute the burst
/// of every *mispredicted* branch until it resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WrongPathProfile {
    /// Maximum wrong-path µ-ops emitted per conditional branch (0 = disabled).
    pub burst_uops: u32,
}

impl WrongPathProfile {
    /// No wrong-path emission (the default; matches the paper's model).
    pub fn disabled() -> Self {
        WrongPathProfile { burst_uops: 0 }
    }

    /// Emit up to `burst_uops` wrong-path µ-ops per conditional branch.
    pub fn burst(burst_uops: u32) -> Self {
        WrongPathProfile { burst_uops }
    }

    /// Returns `true` if wrong-path µ-ops are emitted at all.
    pub fn is_enabled(&self) -> bool {
        self.burst_uops > 0
    }
}

/// A complete synthetic-workload specification.
///
/// Construct one with [`WorkloadSpec::new`] (or use the per-benchmark presets in
/// [`crate::all_spec_benchmarks`]) and hand it to [`crate::TraceGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable benchmark name.
    pub name: String,
    /// RNG seed: every random decision of program construction and trace walking
    /// derives from this, so traces are fully reproducible.
    pub seed: u64,
    /// Number of independent dependency chains in loop bodies (1 = fully serial,
    /// larger = more instruction-level parallelism and higher baseline IPC).
    pub parallel_chains: usize,
    /// Whether the workload is counted as floating point in Table II.
    pub is_fp: bool,
    /// Instruction mix.
    pub mix: InstMix,
    /// Loop structure.
    pub loops: LoopProfile,
    /// Result-value predictability profile.
    pub values: ValueProfile,
    /// Data-dependent branch behaviour.
    pub branches: BranchProfile,
    /// Memory behaviour.
    pub memory: MemoryProfile,
    /// Wrong-path µ-op emission (disabled by default).
    pub wrong_path: WrongPathProfile,
}

impl WorkloadSpec {
    /// Creates a specification with the given name and seed and reasonable defaults
    /// (callers then overwrite the profile fields they care about).
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            seed,
            parallel_chains: 4,
            is_fp: false,
            mix: InstMix::int_default(),
            loops: LoopProfile::tight(),
            values: ValueProfile::mixed(),
            branches: BranchProfile::branchy(),
            memory: MemoryProfile::cache_friendly(),
            wrong_path: WrongPathProfile::disabled(),
        }
    }

    /// Returns this specification with wrong-path bursts of `burst_uops` µ-ops
    /// after every conditional branch.
    #[must_use]
    pub fn with_wrong_path(mut self, burst_uops: u32) -> Self {
        self.wrong_path = WrongPathProfile::burst(burst_uops);
        self
    }

    /// A small named demo workload used in documentation examples and quick tests:
    /// a streaming, strided FP kernel that value prediction accelerates well.
    pub fn named_demo(name: impl Into<String>) -> Self {
        let mut s = WorkloadSpec::new(name, 0xBEB0_5EED);
        s.is_fp = true;
        s.parallel_chains = 2;
        s.mix = InstMix::fp_default();
        s.values = ValueProfile::all_strided();
        s.branches = BranchProfile::predictable();
        s.memory = MemoryProfile::streaming();
        s
    }

    /// Builds the static program for this specification.
    ///
    /// The program is an infinite outer loop over `loops.regions` loop regions; each
    /// region is a counted inner loop whose body optionally contains a
    /// data-dependent if-then diamond. The walker in [`crate::TraceGenerator`]
    /// assigns dynamic behaviour (branch directions, values, addresses).
    pub fn build_program(&self) -> Program {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x5eed_0001);
        let mut b = ProgramBuilder::new(0x40_0000);

        // Blocks are laid out in reservation order and every `Conditional` /
        // `FallThrough` successor on the not-taken path must be the next block in
        // memory, so reserve blocks region by region in layout order. Diamond
        // structure is decided up front so ids can be computed before definition.
        let regions = self.loops.regions.max(1);
        let diamonds: Vec<bool> = (0..regions)
            .map(|_| rng.gen_bool(self.loops.diamond_prob.clamp(0.0, 1.0)))
            .collect();

        struct RegionIds {
            head: BasicBlockId,
            then_bb: Option<BasicBlockId>,
            tail: Option<BasicBlockId>,
        }
        let mut ids = Vec::with_capacity(regions);
        for &with_diamond in &diamonds {
            let head = b.reserve();
            if with_diamond {
                let then_bb = b.reserve();
                let tail = b.reserve();
                ids.push(RegionIds {
                    head,
                    then_bb: Some(then_bb),
                    tail: Some(tail),
                });
            } else {
                ids.push(RegionIds {
                    head,
                    then_bb: None,
                    tail: None,
                });
            }
        }
        let epilogue = b.reserve();

        for r in 0..regions {
            let head = ids[r].head;
            let next_head = ids.get(r + 1).map(|i| i.head).unwrap_or(epilogue);
            if let (Some(then_bb), Some(tail)) = (ids[r].then_bb, ids[r].tail) {
                // head: first half of the body, ends with a data-dependent branch that
                //       skips `then_bb` when taken.
                // then_bb: a few extra instructions, falls through to `tail`.
                // tail: second half of the body, ends with the loop back-edge.
                let half = self.loops.body_insts / 2;
                let mut head_insts = self.gen_body_insts(&mut rng, half.max(1));
                head_insts.push(self.gen_cond_branch(&mut rng));
                b.define(
                    head,
                    head_insts,
                    Terminator::Conditional {
                        taken: tail,
                        not_taken: then_bb,
                    },
                );
                let then_insts = self.gen_body_insts(&mut rng, (self.loops.body_insts / 4).max(1));
                b.define(then_bb, then_insts, Terminator::FallThrough(tail));
                let mut tail_insts =
                    self.gen_body_insts(&mut rng, (self.loops.body_insts - half).max(1));
                tail_insts.push(self.gen_cond_branch(&mut rng));
                b.define(
                    tail,
                    tail_insts,
                    Terminator::Conditional {
                        taken: head,
                        not_taken: next_head,
                    },
                );
            } else {
                let mut insts = self.gen_body_insts(&mut rng, self.loops.body_insts.max(1));
                insts.push(self.gen_cond_branch(&mut rng));
                b.define(
                    head,
                    insts,
                    Terminator::Conditional {
                        taken: head,
                        not_taken: next_head,
                    },
                );
            }
        }

        // Epilogue: wrap around to the first region so the walk is unbounded.
        let jump_back = StaticInst::branch(&[], 2);
        b.define(epilogue, vec![jump_back], Terminator::Jump(ids[0].head));
        b.build(ids[0].head)
    }

    /// Generates the instructions of (part of) a loop body.
    fn gen_body_insts(&self, rng: &mut SmallRng, n: usize) -> Vec<StaticInst> {
        let chains = self.parallel_chains.clamp(1, 8);
        let mut insts = Vec::with_capacity(n);
        for i in 0..n {
            let chain = i % chains;
            insts.push(self.gen_inst(rng, chain, chains));
        }
        insts
    }

    /// Generates one macro-instruction assigned to dependency chain `chain`.
    fn gen_inst(&self, rng: &mut SmallRng, chain: usize, chains: usize) -> StaticInst {
        // Each chain owns one integer and one FP register; an instruction of a chain
        // reads and writes its chain register, creating a serial dependency within
        // the chain and independence across chains.
        let int_reg = |c: usize| ArchReg::int((1 + c as u16) % bebop_isa::NUM_INT_REGS);
        let fp_reg = |c: usize| ArchReg::fp((c as u16) % bebop_isa::NUM_FP_REGS);
        let dst = int_reg(chain);
        let cross = int_reg((chain + 1 + rng.gen_range(0..chains.max(1))) % chains.max(1));
        let len = rng.gen_range(2..=7u8);

        let m = &self.mix;
        let x: f64 = rng.gen();
        let mut acc = m.load;
        if x < acc {
            // Load (possibly load-op producing two results).
            return if rng.gen_bool(m.load_op_frac.clamp(0.0, 1.0)) {
                StaticInst::load_op(dst, cross, dst, cross, len.max(4))
            } else {
                StaticInst::load(dst, cross, len)
            };
        }
        acc += m.store;
        if x < acc {
            return StaticInst::store(dst, cross, len);
        }
        acc += m.fp;
        if x < acc {
            let fdst = fp_reg(chain);
            let fsrc = fp_reg(chain + 1);
            return if rng.gen_bool(0.5) {
                StaticInst::fp_add(fdst, &[fdst, fsrc], len)
            } else {
                StaticInst::fp_mul(fdst, &[fdst, fsrc], len)
            };
        }
        acc += m.mul;
        if x < acc {
            return StaticInst::mul(dst, &[dst, cross], len);
        }
        acc += m.div;
        if x < acc {
            return StaticInst::div(dst, &[dst, cross], len);
        }
        acc += m.load_imm;
        if x < acc {
            return StaticInst::load_imm(dst, len);
        }
        StaticInst::alu(dst, &[dst, cross], len)
    }

    /// Generates the compare-and-branch macro-instruction closing a body or diamond.
    fn gen_cond_branch(&self, rng: &mut SmallRng) -> StaticInst {
        let a = ArchReg::int(rng.gen_range(0..bebop_isa::NUM_INT_REGS));
        let b = ArchReg::int(rng.gen_range(0..bebop_isa::NUM_INT_REGS));
        StaticInst::cmp_branch(a, b, rng.gen_range(2..=4u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_program_is_deterministic() {
        let spec = WorkloadSpec::new("t", 42);
        let p1 = spec.build_program();
        let p2 = spec.build_program();
        assert_eq!(p1.num_blocks(), p2.num_blocks());
        for (id, b1, pc1) in p1.iter() {
            let b2 = p2.block(id);
            assert_eq!(p2.block_pc(id), pc1);
            assert_eq!(b1.size_bytes(), b2.size_bytes());
            assert_eq!(b1.insts().len(), b2.insts().len());
        }
    }

    #[test]
    fn program_has_expected_region_count() {
        let mut spec = WorkloadSpec::new("t", 7);
        spec.loops.regions = 5;
        spec.loops.diamond_prob = 0.0;
        let p = spec.build_program();
        // 5 region heads + epilogue.
        assert_eq!(p.num_blocks(), 6);
    }

    #[test]
    fn diamonds_add_blocks() {
        let mut spec = WorkloadSpec::new("t", 7);
        spec.loops.regions = 5;
        spec.loops.diamond_prob = 1.0;
        let p = spec.build_program();
        // Every region contributes head + then + tail, plus epilogue.
        assert_eq!(p.num_blocks(), 5 * 3 + 1);
    }

    #[test]
    fn bodies_respect_mix_extremes() {
        let mut spec = WorkloadSpec::new("t", 3);
        spec.mix = InstMix {
            load: 0.0,
            store: 0.0,
            fp: 0.0,
            mul: 0.0,
            div: 0.0,
            load_imm: 0.0,
            load_op_frac: 0.0,
        };
        let p = spec.build_program();
        for (_, block, _) in p.iter() {
            for inst in block.insts() {
                for u in inst.uops() {
                    assert!(
                        !u.kind().is_mem(),
                        "pure-ALU mix generated a memory µ-op: {inst}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_region_head_ends_with_conditional() {
        let spec = WorkloadSpec::new("t", 11);
        let p = spec.build_program();
        let mut saw_conditional = false;
        for (_, block, _) in p.iter() {
            if matches!(block.terminator(), Terminator::Conditional { .. }) {
                saw_conditional = true;
                assert!(block.insts().last().unwrap().is_branch());
            }
        }
        assert!(saw_conditional);
    }

    #[test]
    fn profiles_have_sane_constructors() {
        assert!(InstMix::fp_default().fp > 0.0);
        assert!(LoopProfile::large().body_insts > LoopProfile::tight().body_insts);
        assert!(BranchProfile::predictable().random_frac < BranchProfile::branchy().random_frac);
        assert!(
            MemoryProfile::irregular().working_set_bytes
                > MemoryProfile::cache_friendly().working_set_bytes
        );
    }
}
