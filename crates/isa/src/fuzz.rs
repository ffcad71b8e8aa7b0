//! Seeded synthetic-kernel generator for differential and determinism
//! fuzzing.
//!
//! The 21 hand-ported workloads exercise a narrow slice of the divergence
//! shapes the paper cares about. This module generates *structured* random
//! kernels over the full ISA — nested divergent if/else regions, counted
//! (always-terminating) loops, barriers at reconvergence-safe points, and
//! mixed global/shared/param address-space traffic — from a single `u64`
//! seed and a [`FuzzProfile`] that dials the shape from WaSP-style regular
//! streams to fig-8-style pathological divergence.
//!
//! Generation is wall-clock-free: the same `(seed, profile)` pair always
//! produces the same [`KernelPlan`] and the same lowered [`Program`], so a
//! CI failure is reproducible with one environment variable
//! ([`SEED_ENV`]). Plans shrink structurally
//! ([`KernelPlan::shrink_candidates`]) and serialise to replayable
//! reproducer files ([`Reproducer`]) via the `isa::asm` text round-trip.
//!
//! # Safety invariants of generated kernels
//!
//! * **Termination** — every loop is counted: the trip count is loaded
//!   into a dedicated counter register before the loop head and
//!   decremented on the back edge, so kernels always finish within a
//!   modest cycle budget.
//! * **Barriers** — `bar.sync` is emitted only at nesting depth 0, where
//!   the structured lowering guarantees all threads of the block are
//!   converged and none has exited.
//! * **Bounded memory** — addresses are masked into fixed windows below
//!   [`REGION_WORDS`] words at [`STORE_BASE`], [`ATOM_BASE`] and
//!   [`INPUT_BASE`]; plain stores and atomics use *disjoint* regions
//!   (the multi-SM journal merge applies stores before atomic deltas, so
//!   mixing both on one word in a single launch is outside the memory
//!   model).

use crate::asm::{program_from_text, program_to_text, KernelBuilder};
use crate::instr::Operand;
use crate::op::{CmpOp, MemSpace, Op};
use crate::program::Program;
use crate::reg::{p, r, SpecialReg};

/// Environment variable overriding the base seed of every fuzz entry
/// point (harness tests, the corpus replay test and the `fuzz_smoke`
/// bin). Accepts decimal or `0x`-prefixed hex.
pub const SEED_ENV: &str = "WARPWEAVE_FUZZ_SEED";

/// Resolves the fuzz base seed: [`SEED_ENV`] if set and parseable,
/// otherwise `default`.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(s) => parse_seed(&s).unwrap_or(default),
        Err(_) => default,
    }
}

/// Parses a decimal or `0x`-hex seed string.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Byte address of the plain-store region in global memory (`param[0]`).
pub const STORE_BASE: u32 = 0x0001_0000;
/// Byte address of the atomic-add region in global memory (`param[1]`).
/// Disjoint from [`STORE_BASE`] — see the module docs.
pub const ATOM_BASE: u32 = 0x0002_0000;
/// Byte address of the preloaded read-only input region (`param[2]`).
pub const INPUT_BASE: u32 = 0x0003_0000;
/// Words per global region (1024-word address window plus offset slack).
pub const REGION_WORDS: usize = 1040;

/// Launch parameters every generated kernel is run with: the three region
/// bases plus one odd seed-derived constant readable as `param[3]`.
pub fn launch_params(seed: u64) -> Vec<u32> {
    vec![STORE_BASE, ATOM_BASE, INPUT_BASE, (seed as u32) | 1]
}

/// The deterministic contents preloaded at [`INPUT_BASE`] before a run.
pub fn input_words(seed: u64) -> Vec<u32> {
    let mut s = seed ^ 0xa5a5_5a5a_1234_9876;
    (0..REGION_WORDS)
        .map(|_| splitmix64(&mut s) as u32)
        .collect()
}

/// SplitMix64 step — the only randomness source in this module, and the
/// workspace's one copy of the function: `warpweave-core` seeds its
/// tie-break stream and its fuzz harnesses' register state from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded deterministic RNG for kernel generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// A new stream seeded with `seed`.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % n as u64) as u32
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u32) -> bool {
        self.below(100) < pct
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u32) as usize]
    }
}

/// Shape parameters for kernel generation. Presets dial from WaSP-style
/// regular streams ([`FuzzProfile::regular`]) to fig-8-style pathological
/// divergence ([`FuzzProfile::pathological`]).
#[derive(Debug, Clone)]
pub struct FuzzProfile {
    /// Preset name (used in reproducers and the stats table).
    pub name: &'static str,
    /// Maximum if/else + loop nesting depth (≤ 4: one structural
    /// predicate and one loop-counter register are reserved per level).
    pub max_depth: u32,
    /// Maximum *loop* nesting depth (≤ `max_depth`); bounds the dynamic
    /// trip-count product.
    pub max_loop_depth: u32,
    /// Percent chance a statement slot nests a control region.
    pub branch_pct: u32,
    /// Of nested regions, percent chance it is a loop (vs if/else).
    pub loop_pct: u32,
    /// Percent chance a straight-line statement is a memory operation.
    pub mem_pct: u32,
    /// Of compute statements, percent chance the op is SFU class.
    pub sfu_pct: u32,
    /// Of memory statements, percent chance it is an atomic add.
    pub atomic_pct: u32,
    /// Of memory statements, percent chance it targets shared memory.
    pub shared_pct: u32,
    /// Percent chance of a block-wide barrier after a top-level region.
    pub barrier_pct: u32,
    /// Percent chance a loop's trip count is thread-dependent
    /// (`gtid & mask` extra iterations — the fig. 8 divergence shape).
    pub tid_trips_pct: u32,
    /// Maximum statements per straight-line block.
    pub max_block_stmts: u32,
    /// Maximum top-level regions.
    pub max_regions: u32,
    /// Maximum uniform loop trip count.
    pub max_trips: u32,
    /// Static instruction budget for the lowered kernel.
    pub max_instrs: u32,
    /// Grid shape the kernel is launched with.
    pub grid_blocks: u32,
    /// Block shape the kernel is launched with (may be a non-multiple of
    /// the warp width to exercise partially-populated warps).
    pub block_threads: u32,
}

impl FuzzProfile {
    /// Balanced default: moderate divergence, all op classes.
    pub fn balanced() -> FuzzProfile {
        FuzzProfile {
            name: "balanced",
            max_depth: 2,
            max_loop_depth: 1,
            branch_pct: 30,
            loop_pct: 40,
            mem_pct: 30,
            sfu_pct: 15,
            atomic_pct: 20,
            shared_pct: 25,
            barrier_pct: 25,
            tid_trips_pct: 30,
            max_block_stmts: 5,
            max_regions: 3,
            max_trips: 4,
            max_instrs: 120,
            grid_blocks: 2,
            block_threads: 128,
        }
    }

    /// WaSP-style regular stream: long straight-line compute/memory
    /// blocks, barriers, almost no divergence.
    pub fn regular() -> FuzzProfile {
        FuzzProfile {
            name: "regular",
            max_depth: 1,
            max_loop_depth: 1,
            branch_pct: 8,
            loop_pct: 70,
            mem_pct: 40,
            sfu_pct: 25,
            atomic_pct: 5,
            shared_pct: 15,
            barrier_pct: 50,
            tid_trips_pct: 0,
            max_block_stmts: 8,
            max_regions: 3,
            max_trips: 4,
            max_instrs: 140,
            grid_blocks: 2,
            block_threads: 256,
        }
    }

    /// Fig-8-style pathological divergence: deep nested if/else,
    /// thread-dependent loop trip counts, few coalesced accesses.
    pub fn pathological() -> FuzzProfile {
        FuzzProfile {
            name: "pathological",
            max_depth: 4,
            max_loop_depth: 2,
            branch_pct: 55,
            loop_pct: 35,
            mem_pct: 20,
            sfu_pct: 10,
            atomic_pct: 25,
            shared_pct: 20,
            barrier_pct: 15,
            tid_trips_pct: 75,
            max_block_stmts: 4,
            max_regions: 3,
            max_trips: 3,
            max_instrs: 150,
            grid_blocks: 2,
            block_threads: 160,
        }
    }

    /// Memory-pressure profile: most statements are loads, stores and
    /// atomics across all three address spaces.
    pub fn memory_heavy() -> FuzzProfile {
        FuzzProfile {
            name: "memory_heavy",
            max_depth: 2,
            max_loop_depth: 1,
            branch_pct: 20,
            loop_pct: 50,
            mem_pct: 70,
            sfu_pct: 5,
            atomic_pct: 35,
            shared_pct: 40,
            barrier_pct: 30,
            tid_trips_pct: 20,
            max_block_stmts: 6,
            max_regions: 2,
            max_trips: 3,
            max_instrs: 120,
            grid_blocks: 3,
            block_threads: 96,
        }
    }

    /// All presets, in stats-table order.
    pub fn all() -> Vec<FuzzProfile> {
        vec![
            FuzzProfile::regular(),
            FuzzProfile::balanced(),
            FuzzProfile::pathological(),
            FuzzProfile::memory_heavy(),
        ]
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<FuzzProfile> {
        FuzzProfile::all().into_iter().find(|f| f.name == name)
    }
}

/// Number of compute-window registers (`r4..r15`).
const WIN: u8 = 12;
/// First compute-window register.
const WIN_BASE: u8 = 4;
/// First loop-counter register (one per nesting depth).
const LOOP_CTR_BASE: u8 = 16;
/// First structural (branch/loop) predicate (one per nesting depth).
const STRUCT_PRED_BASE: u8 = 0;
/// First compute predicate (`isetp`/`fsetp` results feeding `sel`).
const COMPUTE_PRED_BASE: u8 = 4;
/// Compute predicates available.
const COMPUTE_PREDS: u8 = 4;

/// MAD-class compute ops the generator draws from.
const MAD_OPS: [Op; 25] = [
    Op::Mov,
    Op::IAdd,
    Op::ISub,
    Op::IMul,
    Op::IMad,
    Op::IMin,
    Op::IMax,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Shl,
    Op::Shr,
    Op::Sra,
    Op::FAdd,
    Op::FSub,
    Op::FMul,
    Op::FFma,
    Op::FMin,
    Op::FMax,
    Op::I2F,
    Op::F2I,
    Op::ISetP,
    Op::FSetP,
    Op::Sel,
];

/// SFU-class ops.
const SFU_OPS: [Op; 7] = [
    Op::Rcp,
    Op::Sqrt,
    Op::Rsqrt,
    Op::Sin,
    Op::Cos,
    Op::Ex2,
    Op::Lg2,
];

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A source operand in the plan's register-convention namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Compute-window register (`r4 + i % 12`).
    Win(u8),
    /// The global thread id register `r0`.
    Gtid,
    /// Immediate.
    Imm(u32),
    /// Special register.
    Special(SpecialReg),
    /// Launch parameter `param[i % 4]`.
    Param(u8),
}

impl Src {
    fn lower(self) -> Operand {
        match self {
            Src::Win(w) => Operand::Reg(r(WIN_BASE + w % WIN)),
            Src::Gtid => Operand::Reg(r(0)),
            Src::Imm(v) => Operand::Imm(v),
            Src::Special(s) => Operand::Special(s),
            Src::Param(i) => Operand::Param(i % 4),
        }
    }
}

/// A straight-line ALU/SFU statement writing into the compute window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeStmt {
    /// The opcode (MAD or SFU class, including `isetp`/`fsetp`/`sel`).
    pub op: Op,
    /// Destination window register.
    pub dst: u8,
    /// Destination compute predicate (setp ops only).
    pub pdst: u8,
    /// Comparison (setp ops only).
    pub cmp: CmpOp,
    /// Select predicate (`sel` only).
    pub sel_pred: u8,
    /// Sources (only the op's arity is used).
    pub srcs: [Src; 3],
}

/// Which region a memory statement touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// 32-bit load into the compute window.
    Load,
    /// 32-bit plain store (store region only).
    Store,
    /// Atomic add (atomic region only — disjoint from stores).
    AtomicAdd,
}

/// A memory statement; the address is a masked hash of a window register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStmt {
    /// Load / store / atomic.
    pub kind: MemKind,
    /// Global or shared space.
    pub space: MemSpace,
    /// For loads: which global region is read (0 store, 1 atom, 2 input).
    pub load_region: u8,
    /// Window register hashed into the address.
    pub addr_src: u8,
    /// Store/atomic payload.
    pub data: Src,
    /// Load destination window register.
    pub dst: u8,
    /// Word offset (0..8) folded into the instruction's byte offset.
    pub offset_words: u8,
}

/// One node of the structured kernel plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Straight-line compute.
    Compute(ComputeStmt),
    /// Memory traffic.
    Mem(MemStmt),
    /// A divergent if/else region: `if ((win[lhs] & mask) cmp rhs)`.
    IfElse {
        /// Mask applied to the scrutinee (bounds the comparison domain).
        mask: u32,
        /// Comparison operator.
        cmp: CmpOp,
        /// Window register compared.
        lhs: u8,
        /// Immediate threshold (within `0..=mask`).
        rhs: u32,
        /// Taken-side body.
        then_s: Vec<Stmt>,
        /// Fall-through body (may be empty).
        else_s: Vec<Stmt>,
    },
    /// A counted loop; `tid_mask != 0` adds `gtid & tid_mask` extra trips
    /// (thread-dependent trip counts — the fig. 8 divergence shape).
    Loop {
        /// Uniform trip count (≥ 1).
        trips: u8,
        /// Extra-trip mask (0 = uniform loop).
        tid_mask: u8,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Block-wide barrier — only valid at nesting depth 0.
    Barrier,
}

/// A generated kernel plan: the structured statement tree plus the seed
/// and profile that produced it. Lowers deterministically to a
/// [`Program`] and shrinks structurally.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Seed the plan was generated from.
    pub seed: u64,
    /// Profile the plan was generated with.
    pub profile: FuzzProfile,
    /// Per-window-register init constants (xor'd with the thread id).
    pub window_init: Vec<u32>,
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

fn gen_compute(rng: &mut FuzzRng, profile: &FuzzProfile) -> ComputeStmt {
    let op = if rng.chance(profile.sfu_pct) {
        *rng.pick(&SFU_OPS)
    } else {
        *rng.pick(&MAD_OPS)
    };
    let mut srcs = [Src::Win(0); 3];
    for s in srcs.iter_mut() {
        *s = match rng.below(10) {
            0..=4 => Src::Win(rng.below(WIN as u32) as u8),
            5 => Src::Gtid,
            6..=7 => Src::Imm(rng.next_u64() as u32),
            8 => Src::Special(*rng.pick(&[
                SpecialReg::Tid,
                SpecialReg::CtaId,
                SpecialReg::NTid,
                SpecialReg::NCtaId,
                SpecialReg::LaneId,
                SpecialReg::WarpId,
            ])),
            _ => Src::Param(rng.below(4) as u8),
        };
    }
    ComputeStmt {
        op,
        dst: rng.below(WIN as u32) as u8,
        pdst: rng.below(COMPUTE_PREDS as u32) as u8,
        cmp: *rng.pick(&CMPS),
        sel_pred: rng.below(COMPUTE_PREDS as u32) as u8,
        srcs,
    }
}

fn gen_mem(rng: &mut FuzzRng, profile: &FuzzProfile) -> MemStmt {
    let kind = if rng.chance(profile.atomic_pct) {
        MemKind::AtomicAdd
    } else if rng.chance(50) {
        MemKind::Load
    } else {
        MemKind::Store
    };
    let space = if rng.chance(profile.shared_pct) {
        MemSpace::Shared
    } else {
        MemSpace::Global
    };
    let data = match rng.below(3) {
        0 => Src::Win(rng.below(WIN as u32) as u8),
        1 => Src::Gtid,
        _ => Src::Imm(rng.below(0xffff)),
    };
    MemStmt {
        kind,
        space,
        load_region: rng.below(3) as u8,
        addr_src: rng.below(WIN as u32) as u8,
        data,
        dst: rng.below(WIN as u32) as u8,
        offset_words: rng.below(8) as u8,
    }
}

fn gen_block(
    rng: &mut FuzzRng,
    profile: &FuzzProfile,
    depth: u32,
    loop_depth: u32,
    budget: &mut i32,
    out: &mut Vec<Stmt>,
) {
    let n = 1 + rng.below(profile.max_block_stmts);
    for _ in 0..n {
        if *budget <= 0 {
            break;
        }
        if depth < profile.max_depth.min(4) && rng.chance(profile.branch_pct) {
            if loop_depth < profile.max_loop_depth.min(2) && rng.chance(profile.loop_pct) {
                *budget -= 4;
                let mut body = Vec::new();
                gen_block(rng, profile, depth + 1, loop_depth + 1, budget, &mut body);
                out.push(Stmt::Loop {
                    trips: 1 + rng.below(profile.max_trips.max(1)) as u8,
                    tid_mask: if rng.chance(profile.tid_trips_pct) {
                        *rng.pick(&[1u8, 3])
                    } else {
                        0
                    },
                    body,
                });
            } else {
                *budget -= 5;
                let mask = *rng.pick(&[1u32, 3, 7, 15, 63]);
                let mut then_s = Vec::new();
                gen_block(rng, profile, depth + 1, loop_depth, budget, &mut then_s);
                let mut else_s = Vec::new();
                if rng.chance(55) {
                    gen_block(rng, profile, depth + 1, loop_depth, budget, &mut else_s);
                }
                out.push(Stmt::IfElse {
                    mask,
                    cmp: *rng.pick(&CMPS),
                    lhs: rng.below(WIN as u32) as u8,
                    rhs: rng.below(mask + 1),
                    then_s,
                    else_s,
                });
            }
        } else if rng.chance(profile.mem_pct) {
            *budget -= 4;
            out.push(Stmt::Mem(gen_mem(rng, profile)));
        } else {
            *budget -= 1;
            out.push(Stmt::Compute(gen_compute(rng, profile)));
        }
    }
}

/// Generates the kernel plan for `(seed, profile)` — pure and
/// deterministic.
pub fn generate(seed: u64, profile: &FuzzProfile) -> KernelPlan {
    let mut name_hash = 0xcbf2_9ce4_8422_2325u64;
    for b in profile.name.bytes() {
        name_hash = (name_hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = FuzzRng::new(seed ^ name_hash);
    let mut budget = profile.max_instrs as i32;
    let mut stmts = Vec::new();
    let regions = 1 + rng.below(profile.max_regions.max(1));
    for _ in 0..regions {
        gen_block(&mut rng, profile, 0, 0, &mut budget, &mut stmts);
        if rng.chance(profile.barrier_pct) {
            stmts.push(Stmt::Barrier);
        }
    }
    let window_init = (0..WIN).map(|_| rng.next_u64() as u32).collect();
    KernelPlan {
        seed,
        profile: profile.clone(),
        window_init,
        stmts,
    }
}

/// Lowering context: a monotone label counter.
struct Lower {
    next_label: u32,
}

impl Lower {
    fn fresh(&mut self, kind: &str) -> String {
        self.next_label += 1;
        format!("{kind}_{}", self.next_label)
    }

    fn stmt(&mut self, k: &mut KernelBuilder, s: &Stmt, depth: u8) {
        match s {
            Stmt::Compute(c) => self.compute(k, c),
            Stmt::Mem(m) => self.mem(k, m),
            Stmt::IfElse {
                mask,
                cmp,
                lhs,
                rhs,
                then_s,
                else_s,
            } => {
                let pd = p(STRUCT_PRED_BASE + depth % 4);
                k.and_(r(2), r(WIN_BASE + lhs % WIN), Operand::Imm(*mask));
                k.isetp(pd, *cmp, r(2), Operand::Imm(*rhs));
                match (then_s.is_empty(), else_s.is_empty()) {
                    (true, true) => {}
                    (false, true) => {
                        let join = self.fresh("join");
                        k.bra_ifn(pd, join.clone());
                        for t in then_s {
                            self.stmt(k, t, depth + 1);
                        }
                        k.label(join);
                    }
                    (true, false) => {
                        let join = self.fresh("join");
                        k.bra_if(pd, join.clone());
                        for e in else_s {
                            self.stmt(k, e, depth + 1);
                        }
                        k.label(join);
                    }
                    (false, false) => {
                        let els = self.fresh("else");
                        let join = self.fresh("join");
                        k.bra_ifn(pd, els.clone());
                        for t in then_s {
                            self.stmt(k, t, depth + 1);
                        }
                        k.bra(join.clone());
                        k.label(els);
                        for e in else_s {
                            self.stmt(k, e, depth + 1);
                        }
                        k.label(join);
                    }
                }
            }
            Stmt::Loop {
                trips,
                tid_mask,
                body,
            } => {
                let ctr = r(LOOP_CTR_BASE + depth % 4);
                let pd = p(STRUCT_PRED_BASE + depth % 4);
                if *tid_mask != 0 {
                    k.and_(ctr, r(0), Operand::Imm(*tid_mask as u32));
                    k.iadd(ctr, ctr, Operand::Imm((*trips).max(1) as u32));
                } else {
                    k.mov(ctr, Operand::Imm((*trips).max(1) as u32));
                }
                let head = self.fresh("head");
                k.label(head.clone());
                for b in body {
                    self.stmt(k, b, depth + 1);
                }
                k.iadd(ctr, ctr, -1i32);
                k.isetp(pd, CmpOp::Gt, ctr, 0i32);
                k.bra_if(pd, head);
            }
            Stmt::Barrier => {
                k.bar();
            }
        }
    }

    fn compute(&mut self, k: &mut KernelBuilder, c: &ComputeStmt) {
        let dst = r(WIN_BASE + c.dst % WIN);
        let s0 = c.srcs[0].lower();
        let s1 = c.srcs[1].lower();
        let s2 = c.srcs[2].lower();
        match c.op {
            Op::Mov => k.mov(dst, s0),
            Op::IAdd => k.iadd(dst, s0, s1),
            Op::ISub => k.isub(dst, s0, s1),
            Op::IMul => k.imul(dst, s0, s1),
            Op::IMad => k.imad(dst, s0, s1, s2),
            Op::IMin => k.imin(dst, s0, s1),
            Op::IMax => k.imax(dst, s0, s1),
            Op::And => k.and_(dst, s0, s1),
            Op::Or => k.or_(dst, s0, s1),
            Op::Xor => k.xor(dst, s0, s1),
            Op::Not => k.not(dst, s0),
            Op::Shl => k.shl(dst, s0, s1),
            Op::Shr => k.shr(dst, s0, s1),
            Op::Sra => k.sra(dst, s0, s1),
            Op::FAdd => k.fadd(dst, s0, s1),
            Op::FSub => k.fsub(dst, s0, s1),
            Op::FMul => k.fmul(dst, s0, s1),
            Op::FFma => k.ffma(dst, s0, s1, s2),
            Op::FMin => k.fmin(dst, s0, s1),
            Op::FMax => k.fmax(dst, s0, s1),
            Op::I2F => k.i2f(dst, s0),
            Op::F2I => k.f2i(dst, s0),
            Op::ISetP => k.isetp(p(COMPUTE_PRED_BASE + c.pdst % COMPUTE_PREDS), c.cmp, s0, s1),
            Op::FSetP => k.fsetp(p(COMPUTE_PRED_BASE + c.pdst % COMPUTE_PREDS), c.cmp, s0, s1),
            Op::Sel => k.sel(
                dst,
                p(COMPUTE_PRED_BASE + c.sel_pred % COMPUTE_PREDS),
                s0,
                s1,
            ),
            Op::Rcp => k.rcp(dst, s0),
            Op::Sqrt => k.sqrt(dst, s0),
            Op::Rsqrt => k.rsqrt(dst, s0),
            Op::Sin => k.sin(dst, s0),
            Op::Cos => k.cos(dst, s0),
            Op::Ex2 => k.ex2(dst, s0),
            Op::Lg2 => k.lg2(dst, s0),
            other => unreachable!("non-compute op {other} in compute stmt"),
        };
    }

    fn mem(&mut self, k: &mut KernelBuilder, m: &MemStmt) {
        let addr_src = r(WIN_BASE + m.addr_src % WIN);
        let off = (m.offset_words % 8) as i32 * 4;
        match m.space {
            MemSpace::Global => {
                // addr = param[region] + ((win & 0x3ff) << 2)
                let region: u8 = match m.kind {
                    MemKind::Store => 0,
                    MemKind::AtomicAdd => 1,
                    MemKind::Load => m.load_region % 3,
                };
                k.and_(r(1), addr_src, 0x3ffu32);
                k.shl(r(1), r(1), 2i32);
                k.iadd(r(1), r(1), Operand::Param(region));
                match m.kind {
                    MemKind::Load => k.ld(r(WIN_BASE + m.dst % WIN), r(1), off),
                    MemKind::Store => k.st(r(1), off, m.data.lower()),
                    MemKind::AtomicAdd => k.atom_add(r(1), off, m.data.lower()),
                };
            }
            MemSpace::Shared => {
                // Store window [0, 32) words, atomic window [64, 96),
                // loads read [0, 128) — stores and atomics stay disjoint.
                match m.kind {
                    MemKind::Load => {
                        k.and_(r(1), addr_src, 0x7fu32);
                        k.shl(r(1), r(1), 2i32);
                        k.ld_shared(r(WIN_BASE + m.dst % WIN), r(1), off);
                    }
                    MemKind::Store => {
                        k.and_(r(1), addr_src, 0x1fu32);
                        k.shl(r(1), r(1), 2i32);
                        k.st_shared(r(1), off, m.data.lower());
                    }
                    MemKind::AtomicAdd => {
                        k.and_(r(1), addr_src, 0x1fu32);
                        k.iadd(r(1), r(1), 64i32);
                        k.shl(r(1), r(1), 2i32);
                        k.atom_add_shared(r(1), off, m.data.lower());
                    }
                };
            }
        }
    }
}

impl KernelPlan {
    /// Lowers the plan to a validated [`Program`] through
    /// [`KernelBuilder`] (labels, CFG analysis, `SYNC` insertion).
    ///
    /// # Errors
    /// Propagates assembler/CFG errors (a lowering bug, not an input
    /// property — generated plans always lower).
    pub fn lower(&self) -> Result<Program, String> {
        let mut k = KernelBuilder::new(format!("fuzz_{}_{:016x}", self.profile.name, self.seed));
        // Prologue: r0 = global thread id; window seeded thread-variant.
        k.mov(r(0), SpecialReg::CtaId);
        k.imad(r(0), r(0), SpecialReg::NTid, SpecialReg::Tid);
        for (i, c) in self.window_init.iter().enumerate() {
            k.xor(r(WIN_BASE + i as u8 % WIN), r(0), Operand::Imm(*c));
        }
        let mut ctx = Lower { next_label: 0 };
        for s in &self.stmts {
            ctx.stmt(&mut k, s, 0);
        }
        k.exit();
        k.build()
    }

    /// Shrink-ordering metric: statement count, with loops weighted by
    /// their trip parameters so weakening a loop also counts as smaller.
    pub fn size(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::IfElse { then_s, else_s, .. } => 1 + count(then_s) + count(else_s),
                    Stmt::Loop {
                        trips,
                        tid_mask,
                        body,
                    } => 1 + *trips as usize + *tid_mask as usize + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.stmts)
    }

    /// Strictly-smaller candidate plans for greedy shrinking: each
    /// candidate drops one statement, splices a region's body in place of
    /// the region, weakens a loop (one trip / uniform trips), or applies
    /// one of these inside a nested body.
    pub fn shrink_candidates(&self) -> Vec<KernelPlan> {
        shrink_list(&self.stmts)
            .into_iter()
            .map(|stmts| KernelPlan {
                stmts,
                ..self.clone()
            })
            .collect()
    }
}

fn with_replaced(stmts: &[Stmt], i: usize, replacement: Vec<Stmt>) -> Vec<Stmt> {
    let mut v: Vec<Stmt> = stmts[..i].to_vec();
    v.extend(replacement);
    v.extend_from_slice(&stmts[i + 1..]);
    v
}

fn shrink_list(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        // Drop the statement entirely.
        out.push(with_replaced(stmts, i, vec![]));
        match &stmts[i] {
            Stmt::IfElse { then_s, else_s, .. } => {
                if !then_s.is_empty() {
                    out.push(with_replaced(stmts, i, then_s.clone()));
                }
                if !else_s.is_empty() {
                    out.push(with_replaced(stmts, i, else_s.clone()));
                }
                for tv in shrink_list(then_s) {
                    let mut s = stmts[i].clone();
                    if let Stmt::IfElse { then_s, .. } = &mut s {
                        *then_s = tv;
                    }
                    out.push(with_replaced(stmts, i, vec![s]));
                }
                for ev in shrink_list(else_s) {
                    let mut s = stmts[i].clone();
                    if let Stmt::IfElse { else_s, .. } = &mut s {
                        *else_s = ev;
                    }
                    out.push(with_replaced(stmts, i, vec![s]));
                }
            }
            Stmt::Loop {
                trips,
                tid_mask,
                body,
            } => {
                if !body.is_empty() {
                    out.push(with_replaced(stmts, i, body.clone()));
                }
                if *trips > 1 {
                    out.push(with_replaced(
                        stmts,
                        i,
                        vec![Stmt::Loop {
                            trips: 1,
                            tid_mask: *tid_mask,
                            body: body.clone(),
                        }],
                    ));
                }
                if *tid_mask != 0 {
                    out.push(with_replaced(
                        stmts,
                        i,
                        vec![Stmt::Loop {
                            trips: *trips,
                            tid_mask: 0,
                            body: body.clone(),
                        }],
                    ));
                }
                for bv in shrink_list(body) {
                    out.push(with_replaced(
                        stmts,
                        i,
                        vec![Stmt::Loop {
                            trips: *trips,
                            tid_mask: *tid_mask,
                            body: bv,
                        }],
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// A self-contained, replayable failure reproducer: the lowered program
/// plus the launch shape and seed (which regenerates the input-region
/// contents). Serialises through the `isa::asm` text round-trip.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// Seed the failing case ran with (also regenerates inputs).
    pub seed: u64,
    /// Profile name the case was generated with.
    pub profile: String,
    /// Launch grid blocks.
    pub grid_blocks: u32,
    /// Launch block threads.
    pub block_threads: u32,
    /// The (possibly shrunk) kernel.
    pub program: Program,
}

impl Reproducer {
    /// Builds a reproducer from a plan and its lowered program.
    pub fn from_plan(plan: &KernelPlan, program: Program) -> Reproducer {
        Reproducer {
            seed: plan.seed,
            profile: plan.profile.name.to_string(),
            grid_blocks: plan.profile.grid_blocks,
            block_threads: plan.profile.block_threads,
            program,
        }
    }

    /// Serialises to the reproducer text format (fuzz directives followed
    /// by the program's asm text).
    pub fn to_text(&self) -> String {
        format!(
            "; warpweave fuzz reproducer — replay via the corpus test or\n\
             ; {}=0x{:x} on the matching fuzz entry point\n\
             .fuzz_seed 0x{:x}\n\
             .profile {}\n\
             .grid {}\n\
             .block {}\n\
             {}",
            SEED_ENV,
            self.seed,
            self.seed,
            self.profile,
            self.grid_blocks,
            self.block_threads,
            program_to_text(&self.program)
        )
    }

    /// Parses the reproducer text format.
    ///
    /// # Errors
    /// Reports missing/malformed fuzz directives and any asm parse error.
    pub fn from_text(text: &str) -> Result<Reproducer, String> {
        let mut seed = None;
        let mut profile = None;
        let mut grid = None;
        let mut block = None;
        let mut rest = String::new();
        for line in text.lines() {
            let t = line.trim();
            if let Some(v) = t.strip_prefix(".fuzz_seed") {
                seed = Some(parse_seed(v).ok_or_else(|| format!("bad .fuzz_seed `{v}`"))?);
            } else if let Some(v) = t.strip_prefix(".profile") {
                profile = Some(v.trim().to_string());
            } else if let Some(v) = t.strip_prefix(".grid") {
                grid = Some(
                    v.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad .grid `{v}`: {e}"))?,
                );
            } else if let Some(v) = t.strip_prefix(".block") {
                block = Some(
                    v.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad .block `{v}`: {e}"))?,
                );
            } else {
                rest.push_str(line);
                rest.push('\n');
            }
        }
        Ok(Reproducer {
            seed: seed.ok_or("missing .fuzz_seed directive")?,
            profile: profile.ok_or("missing .profile directive")?,
            grid_blocks: grid.ok_or("missing .grid directive")?,
            block_threads: block.ok_or("missing .block directive")?,
            program: program_from_text(&rest)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let profile = FuzzProfile::balanced();
        let a = generate(42, &profile);
        let b = generate(42, &profile);
        assert_eq!(a.stmts, b.stmts);
        assert_eq!(a.window_init, b.window_init);
        let pa = a.lower().unwrap();
        let pb = b.lower().unwrap();
        assert_eq!(pa.instructions(), pb.instructions());
    }

    #[test]
    fn profiles_differ_and_lower() {
        let mut rendered = std::collections::HashSet::new();
        for profile in FuzzProfile::all() {
            let plan = generate(7, &profile);
            let prog = plan.lower().unwrap();
            assert!(!prog.is_empty());
            assert!(prog.instructions().last().unwrap().op == Op::Exit);
            rendered.insert(prog.disassemble());
        }
        assert_eq!(rendered.len(), 4, "profiles must shape distinct kernels");
    }

    #[test]
    fn hundred_seeds_lower_validly() {
        for profile in FuzzProfile::all() {
            for seed in 0..100u64 {
                let plan = generate(seed, &profile);
                let prog = plan
                    .lower()
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", profile.name));
                // Branch targets were validated by Program construction;
                // additionally every barrier must sit at top level (no
                // guard), which Instruction::validate enforces.
                assert!(prog.len() < 1024, "runaway kernel size");
            }
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let plan = generate(3, &FuzzProfile::pathological());
        let n = plan.size();
        let cands = plan.shrink_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(
                c.size() < n,
                "candidate did not shrink: {} >= {n}",
                c.size()
            );
        }
    }

    #[test]
    fn reproducer_text_roundtrip() {
        let plan = generate(11, &FuzzProfile::memory_heavy());
        let prog = plan.lower().unwrap();
        let rep = Reproducer::from_plan(&plan, prog);
        let text = rep.to_text();
        let back = Reproducer::from_text(&text).unwrap();
        assert_eq!(back.seed, rep.seed);
        assert_eq!(back.profile, rep.profile);
        assert_eq!(back.grid_blocks, rep.grid_blocks);
        assert_eq!(back.block_threads, rep.block_threads);
        assert_eq!(back.program.name(), rep.program.name());
        assert_eq!(back.program.instructions(), rep.program.instructions());
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed(" 0X2A "), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }
}
