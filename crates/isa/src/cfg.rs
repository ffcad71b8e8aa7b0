//! Control-flow analysis: basic blocks, dominators, post-dominators,
//! reconvergence-point annotation and `SYNC` insertion.
//!
//! This pass plays the role of the compiler support the paper assumes
//! (§3.3): for every potentially-divergent branch it
//!
//! 1. computes the reconvergence point as the branch block's immediate
//!    post-dominator (the PDOM stack architecture pops there),
//! 2. inserts a [`crate::op::Op::Sync`] instruction at each reconvergence
//!    point whose payload `PCdiv` is the *last instruction of the immediate
//!    dominator* of the reconvergence block, and
//! 3. reports whether the code layout is thread-frontier ordered (every
//!    reconvergence point at a higher address than its divergence point).

use crate::instr::Instruction;
use crate::op::Op;
use crate::program::Pc;

/// A basic block: instructions `[start, end)` plus CFG edges.
#[derive(Debug, Clone)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block ids (`cfg.exit_node()` denotes the virtual exit).
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// A control-flow graph over a linear instruction sequence.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in address order.
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// The id of the virtual exit node (one past the last real block).
    pub fn exit_node(&self) -> usize {
        self.blocks.len()
    }

    /// The block containing instruction `idx`, by binary search over the
    /// address-ordered block starts (blocks partition `[0, n)`, so the
    /// owning block is the last one whose `start <= idx`).
    pub fn block_containing(&self, idx: usize) -> usize {
        debug_assert!(!self.blocks.is_empty() && idx < self.blocks[self.blocks.len() - 1].end);
        self.blocks.partition_point(|b| b.start <= idx) - 1
    }
}

/// Builds the CFG of an instruction sequence whose branch targets are
/// instruction indices.
#[allow(clippy::needless_range_loop)] // index math over leaders is clearer
pub fn build_cfg(instrs: &[Instruction]) -> Cfg {
    let n = instrs.len();
    // Leaders: entry, branch targets, instructions following branches/exits.
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (i, ins) in instrs.iter().enumerate() {
        match ins.op {
            Op::Bra => {
                let t = ins.target.expect("validated branch has target").index();
                leader[t] = true;
                if i + 1 < n {
                    leader[i + 1] = true;
                }
            }
            Op::Exit if i + 1 < n => {
                leader[i + 1] = true;
            }
            _ => {}
        }
    }
    let mut blocks = Vec::new();
    let mut start = 0;
    for i in 0..n {
        if i > 0 && leader[i] {
            blocks.push(Block {
                start,
                end: i,
                succs: Vec::new(),
                preds: Vec::new(),
            });
            start = i;
        }
    }
    if n > 0 {
        blocks.push(Block {
            start,
            end: n,
            succs: Vec::new(),
            preds: Vec::new(),
        });
    }
    // Edges. A leader opens every block, so a block id is recoverable from
    // any interior index by binary search (`Cfg::block_containing`); the
    // fallthrough successor of block `b` is simply `b + 1`.
    let cfg = Cfg { blocks };
    let exit = cfg.exit_node();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for b in 0..cfg.blocks.len() {
        let last = cfg.blocks[b].end - 1;
        let ins = &instrs[last];
        match ins.op {
            Op::Bra => {
                let t = cfg.block_containing(ins.target.expect("branch target").index());
                if ins.guard.is_some() {
                    // Divergent branch: fallthrough first, then target.
                    if cfg.blocks[b].end < n {
                        edges.push((b, b + 1));
                    } else {
                        edges.push((b, exit));
                    }
                }
                edges.push((b, t));
            }
            Op::Exit => edges.push((b, exit)),
            _ => {
                if cfg.blocks[b].end < n {
                    edges.push((b, b + 1));
                } else {
                    edges.push((b, exit));
                }
            }
        }
    }
    let mut cfg = cfg;
    for (from, to) in edges {
        cfg.blocks[from].succs.push(to);
        if to != exit {
            cfg.blocks[to].preds.push(from);
        }
    }
    cfg
}

/// Computes immediate dominators with the Cooper–Harvey–Kennedy iterative
/// algorithm over an arbitrary graph given by `preds`, with `entry` as root.
///
/// Returns `idom[v]`: `None` for the entry itself and for unreachable nodes.
fn idoms_generic(
    n: usize,
    entry: usize,
    preds: &dyn Fn(usize) -> Vec<usize>,
    succs: &dyn Fn(usize) -> Vec<usize>,
) -> Vec<Option<usize>> {
    // Reverse postorder from entry.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack = vec![(entry, 0usize)];
    state[entry] = 1;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        let ss = succs(v);
        if *i < ss.len() {
            let s = ss[*i];
            *i += 1;
            if state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
            }
        } else {
            state[v] = 2;
            order.push(v);
            stack.pop();
        }
    }
    order.reverse(); // reverse postorder
    let mut rpo_num = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rpo_num[v] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[entry] = Some(entry);
    let intersect = |idom: &[Option<usize>], rpo_num: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_num[a] > rpo_num[b] {
                a = idom[a].expect("processed node has idom");
            }
            while rpo_num[b] > rpo_num[a] {
                b = idom[b].expect("processed node has idom");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &v in &order {
            if v == entry {
                continue;
            }
            let mut new_idom: Option<usize> = None;
            for p in preds(v) {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &rpo_num, cur, p),
                });
            }
            if new_idom.is_some() && idom[v] != new_idom {
                idom[v] = new_idom;
                changed = true;
            }
        }
    }
    // Entry's idom is conventionally itself internally; report None outside.
    idom[entry] = None;
    idom
}

/// Immediate dominators of the CFG's blocks (`None` for the entry block and
/// unreachable blocks).
pub fn dominators(cfg: &Cfg) -> Vec<Option<usize>> {
    if cfg.blocks.is_empty() {
        return Vec::new();
    }
    let n = cfg.blocks.len() + 1; // + virtual exit (a sink; harmless)
    let exit = cfg.exit_node();
    let preds = |v: usize| -> Vec<usize> {
        if v == exit {
            (0..cfg.blocks.len())
                .filter(|&b| cfg.blocks[b].succs.contains(&exit))
                .collect()
        } else {
            cfg.blocks[v].preds.clone()
        }
    };
    let succs = |v: usize| -> Vec<usize> {
        if v == exit {
            Vec::new()
        } else {
            cfg.blocks[v].succs.clone()
        }
    };
    let mut d = idoms_generic(n, 0, &preds, &succs);
    d.truncate(cfg.blocks.len());
    d
}

/// Immediate post-dominators of the CFG's blocks. `Some(exit_node())` means
/// the block post-dominates straight to program exit; `None` means
/// unreachable.
pub fn postdominators(cfg: &Cfg) -> Vec<Option<usize>> {
    if cfg.blocks.is_empty() {
        return Vec::new();
    }
    let n = cfg.blocks.len() + 1;
    let exit = cfg.exit_node();
    // Reversed graph: entry = virtual exit.
    let preds = |v: usize| -> Vec<usize> {
        // preds in reversed graph = succs in original
        if v == exit {
            Vec::new()
        } else {
            cfg.blocks[v].succs.clone()
        }
    };
    let succs = |v: usize| -> Vec<usize> {
        if v == exit {
            (0..cfg.blocks.len())
                .filter(|&b| cfg.blocks[b].succs.contains(&exit))
                .collect()
        } else {
            cfg.blocks[v].preds.clone()
        }
    };
    let mut d = idoms_generic(n, exit, &preds, &succs);
    d.truncate(cfg.blocks.len());
    d
}

/// Per-divergent-branch layout facts, and the overall verdict.
#[derive(Debug, Clone, Default)]
pub struct LayoutReport {
    /// `(branch pc, reconvergence pc)` for every divergent branch that has a
    /// real (non-exit) reconvergence point. PCs refer to the final layout.
    pub branch_reconv: Vec<(Pc, Pc)>,
    /// True iff every reconvergence point lies at a higher address than its
    /// divergence point — the thread-frontier layout property (paper §3.3).
    pub frontier_ordered: bool,
}

/// Runs the full analysis over `instrs` (branch targets = instruction
/// indices): annotates divergent branches with their reconvergence PC,
/// optionally inserts `SYNC` instructions, and reports layout order.
///
/// Returns the rewritten instruction vector (with remapped targets) and the
/// layout report.
///
/// # Errors
/// Propagates instruction-validation failures.
pub fn analyze_and_finalize(
    mut instrs: Vec<Instruction>,
    insert_syncs: bool,
) -> Result<(Vec<Instruction>, LayoutReport), String> {
    let cfg = build_cfg(&instrs);
    let idom = dominators(&cfg);
    let ipdom = postdominators(&cfg);
    let exit = cfg.exit_node();

    // Reconvergence block for each divergent branch (by old instr index).
    // rec_blocks: set of blocks that are reconvergence points.
    let mut branch_rec: Vec<(usize, Option<usize>)> = Vec::new(); // (branch idx, rec block)
    let mut rec_blocks: Vec<usize> = Vec::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let last = blk.end - 1;
        if instrs[last].is_divergent_branch() {
            match ipdom[b] {
                Some(r) if r != exit => {
                    branch_rec.push((last, Some(r)));
                    if !rec_blocks.contains(&r) {
                        rec_blocks.push(r);
                    }
                }
                _ => branch_rec.push((last, None)),
            }
        }
    }
    rec_blocks.sort_unstable();

    // Old instruction indices where a SYNC is inserted *before*.
    let sync_at: Vec<usize> = if insert_syncs {
        rec_blocks.iter().map(|&b| cfg.blocks[b].start).collect()
    } else {
        Vec::new()
    };

    // new_index(i): position of old instruction i in the final layout.
    let new_index = |i: usize| -> usize { i + sync_at.iter().filter(|&&s| s <= i).count() };
    // sync_index(s): position of the SYNC inserted before old instruction s.
    let sync_index = |s: usize| -> usize { new_index(s) - 1 };
    // Branch-target mapping: a target at a sync point redirects to the SYNC.
    let map_target = |t: usize| -> usize {
        if sync_at.contains(&t) {
            sync_index(t)
        } else {
            new_index(t)
        }
    };

    // Annotate branches with reconvergence PCs (in final coordinates).
    for &(bidx, rec) in &branch_rec {
        instrs[bidx].reconv = rec.map(|r| {
            let s = cfg.blocks[r].start;
            if insert_syncs {
                Pc(sync_index(s) as u32)
            } else {
                Pc(new_index(s) as u32)
            }
        });
    }

    // Rewrite targets and lay out with SYNCs.
    let mut out: Vec<Instruction> = Vec::with_capacity(instrs.len() + sync_at.len());
    for (i, mut ins) in instrs.into_iter().enumerate() {
        if sync_at.contains(&i) {
            let r = cfg.block_containing(i);
            // PCdiv = last instruction of the immediate dominator of the
            // reconvergence block (paper §3.3); entry-block reconvergence
            // cannot happen (entry has no idom) but fall back to 0.
            let pcdiv = idom[r]
                .map(|d| new_index(cfg.blocks[d].end - 1))
                .unwrap_or(0);
            let mut sync = Instruction::new(Op::Sync);
            sync.sync_pcdiv = Some(Pc(pcdiv as u32));
            out.push(sync);
        }
        if let Some(t) = ins.target {
            ins.target = Some(Pc(map_target(t.index()) as u32));
        }
        out.push(ins);
    }

    // Layout report (final coordinates).
    let mut report = LayoutReport {
        branch_reconv: Vec::new(),
        frontier_ordered: true,
    };
    for &(bidx, rec) in &branch_rec {
        if let Some(r) = rec {
            let s = cfg.blocks[r].start;
            let rec_pc = if insert_syncs {
                sync_index(s)
            } else {
                new_index(s)
            };
            let b_pc = new_index(bidx);
            report
                .branch_reconv
                .push((Pc(b_pc as u32), Pc(rec_pc as u32)));
            if rec_pc <= b_pc {
                report.frontier_ordered = false;
            }
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Guard, Operand};
    use crate::reg::{p, r};

    fn mov(d: u8) -> Instruction {
        let mut i = Instruction::new(Op::Mov);
        i.dst = Some(r(d));
        i.srcs[0] = Some(Operand::imm_i32(0));
        i
    }

    fn bra(t: u32, guarded: bool) -> Instruction {
        let mut i = Instruction::new(Op::Bra);
        i.target = Some(Pc(t));
        if guarded {
            i.guard = Some(Guard::if_true(p(0)));
        }
        i
    }

    fn exit() -> Instruction {
        Instruction::new(Op::Exit)
    }

    /// if/else diamond:
    /// 0: @p bra 3    (then at 1..3, else at 3)
    /// 1: mov
    /// 2: bra 4
    /// 3: mov          <- else
    /// 4: mov          <- reconvergence
    /// 5: exit
    fn diamond() -> Vec<Instruction> {
        vec![bra(3, true), mov(1), bra(4, false), mov(2), mov(3), exit()]
    }

    #[test]
    fn cfg_blocks_of_diamond() {
        let c = build_cfg(&diamond());
        assert_eq!(c.blocks.len(), 4);
        assert_eq!(c.blocks[0].succs, vec![1, 2]); // fallthrough then target
        assert_eq!(c.blocks[1].succs, vec![3]);
        assert_eq!(c.blocks[2].succs, vec![3]);
    }

    #[test]
    fn dominators_of_diamond() {
        let c = build_cfg(&diamond());
        let d = dominators(&c);
        assert_eq!(d[0], None);
        assert_eq!(d[1], Some(0));
        assert_eq!(d[2], Some(0));
        assert_eq!(d[3], Some(0));
    }

    #[test]
    fn postdominators_of_diamond() {
        let c = build_cfg(&diamond());
        let pd = postdominators(&c);
        assert_eq!(pd[0], Some(3)); // reconverges at block 3 (pc 4)
        assert_eq!(pd[1], Some(3));
        assert_eq!(pd[2], Some(3));
        assert_eq!(pd[3], Some(c.exit_node()));
    }

    #[test]
    fn sync_insertion_and_target_remap() {
        let (out, rep) = analyze_and_finalize(diamond(), true).unwrap();
        // One sync before old pc 4 → layout length 7.
        assert_eq!(out.len(), 7);
        assert_eq!(out[4].op, Op::Sync);
        // The divergent branch now targets old-3 → new 3.
        assert_eq!(out[0].target, Some(Pc(3)));
        // Its reconvergence annotation points at the SYNC.
        assert_eq!(out[0].reconv, Some(Pc(4)));
        // The then-path's jump to the join targets the SYNC.
        assert_eq!(out[2].target, Some(Pc(4)));
        // PCdiv = last instruction of idom(join) = the branch at 0.
        assert_eq!(out[4].sync_pcdiv, Some(Pc(0)));
        assert!(rep.frontier_ordered);
        assert_eq!(rep.branch_reconv, vec![(Pc(0), Pc(4))]);
    }

    #[test]
    fn no_sync_when_disabled() {
        let (out, rep) = analyze_and_finalize(diamond(), false).unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|i| i.op != Op::Sync));
        assert_eq!(out[0].reconv, Some(Pc(4)));
        assert!(rep.frontier_ordered);
    }

    /// Loop:
    /// 0: mov
    /// 1: mov         <- head
    /// 2: @p bra 1    (back edge, divergent)
    /// 3: exit
    #[test]
    fn divergent_loop_reconverges_at_exit_block() {
        let v = vec![mov(0), mov(1), bra(1, true), exit()];
        let (out, rep) = analyze_and_finalize(v, true).unwrap();
        // Reconvergence block is the exit block (old pc 3): sync inserted.
        let sync_pos = out.iter().position(|i| i.op == Op::Sync).unwrap();
        assert_eq!(sync_pos, 3);
        assert_eq!(out[2].reconv, Some(Pc(3)));
        assert!(rep.frontier_ordered);
        // Back-edge target unchanged (old 1 → new 1).
        assert_eq!(out[2].target, Some(Pc(1)));
    }

    /// Divergent branch straight to exit paths — no reconvergence point.
    #[test]
    fn branch_to_exits_has_no_reconv() {
        // 0: @p bra 3 / 1: mov / 2: exit / 3: mov / 4: exit
        let v = vec![bra(3, true), mov(0), exit(), mov(1), exit()];
        let (out, rep) = analyze_and_finalize(v, true).unwrap();
        assert!(out.iter().all(|i| i.op != Op::Sync));
        assert_eq!(out[0].reconv, None);
        assert!(rep.branch_reconv.is_empty());
        assert!(rep.frontier_ordered);
    }

    /// Backward reconvergence (non-frontier layout, TMD1-style).
    /// 0: bra 4  — jump over join
    /// 1: mov    <- join block (reconvergence), laid out EARLY
    /// 2: mov
    /// 3: exit
    /// 4: @p bra 6
    /// 5: bra 1
    /// 6: bra 1
    #[test]
    fn non_frontier_layout_detected() {
        let v = vec![
            bra(4, false),
            mov(0),
            mov(1),
            exit(),
            bra(6, true),
            bra(1, false),
            bra(1, false),
        ];
        let (_, rep) = analyze_and_finalize(v, true).unwrap();
        assert!(!rep.frontier_ordered);
    }

    /// Straight-line program: one block, trivially (post)dominated.
    #[test]
    fn single_block_dominators_and_postdominators() {
        let c = build_cfg(&[mov(0), mov(1), exit()]);
        assert_eq!(c.blocks.len(), 1);
        assert_eq!(dominators(&c), vec![None]); // entry has no idom
        assert_eq!(postdominators(&c), vec![Some(c.exit_node())]);
        for i in 0..3 {
            assert_eq!(c.block_containing(i), 0);
        }
    }

    /// Loop-to-self: a block whose divergent back edge targets its own head.
    /// 0: mov          <- preheader
    /// 1: mov          <- head (block 1, loops to itself)
    /// 2: @p bra 1
    /// 3: exit
    #[test]
    fn self_loop_dominators_and_postdominators() {
        let c = build_cfg(&[mov(0), mov(1), bra(1, true), exit()]);
        assert_eq!(c.blocks.len(), 3);
        // Block 1's successors are the fallthrough (exit block) and itself.
        assert_eq!(c.blocks[1].succs, vec![2, 1]);
        let d = dominators(&c);
        assert_eq!(d, vec![None, Some(0), Some(1)]);
        // The self-loop must not fool the postdominator fixpoint: block 1
        // post-dominates to the exit block, not to itself.
        let pd = postdominators(&c);
        assert_eq!(pd, vec![Some(1), Some(2), Some(c.exit_node())]);
    }

    /// `block_containing` agrees with a linear scan on an irregular layout.
    #[test]
    fn block_containing_matches_linear_scan() {
        let v = diamond();
        let c = build_cfg(&v);
        for i in 0..v.len() {
            let linear = c
                .blocks
                .iter()
                .position(|b| b.start <= i && i < b.end)
                .unwrap();
            assert_eq!(c.block_containing(i), linear, "instr {i}");
        }
    }

    #[test]
    fn nested_if_pcdiv_points_at_inner_branch() {
        // Nested diamonds, matching fig. 4's A..G structure:
        // 0: @p bra 8      A: outer branch (else at 8)
        // 1: mov           B1
        // 2: @p bra 5      C: inner branch (else at 5)
        // 3: mov           D
        // 4: bra 6         -> F
        // 5: mov           E
        // 6: mov           F: inner join
        // 7: bra 9         -> G
        // 8: mov           B2 (outer else)
        // 9: mov           G: outer join
        // 10: exit
        let v = vec![
            bra(8, true),
            mov(0),
            bra(5, true),
            mov(1),
            bra(6, false),
            mov(2),
            mov(3),
            bra(9, false),
            mov(4),
            mov(5),
            exit(),
        ];
        let (out, rep) = analyze_and_finalize(v, true).unwrap();
        assert!(rep.frontier_ordered);
        // Two syncs inserted: before old 6 (F) and old 9 (G).
        let syncs: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op == Op::Sync)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(syncs.len(), 2);
        // Inner sync's PCdiv is the inner branch (old 2 → new 2 + 0 syncs before).
        let inner_sync = &out[syncs[0]];
        assert_eq!(inner_sync.sync_pcdiv, Some(Pc(2)));
        // Outer sync's PCdiv is the outer branch at 0.
        let outer_sync = &out[syncs[1]];
        assert_eq!(outer_sync.sync_pcdiv, Some(Pc(0)));
    }
}
