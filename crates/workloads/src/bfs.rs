//! BFS (Rodinia): level-synchronous breadth-first search over a CSR graph —
//! one kernel launch per frontier level; variable node degrees produce the
//! classic data-dependent loop imbalance and branch divergence.

use warpweave_core::Launch;
use warpweave_isa::{p, r, CmpOp, KernelBuilder, Operand, Program};

use crate::runner::{Prepared, Scale};
use crate::util::{assert_exact, emit_elem_addr, emit_gtid, region, Lcg};
use crate::{Category, Workload};

/// See the [module docs](self).
pub struct Bfs;

const INF: u32 = u32::MAX;
const P_ROWS: u8 = 0;
const P_COLS: u8 = 1;
const P_DIST: u8 = 2;
const P_LEVEL: u8 = 3;

fn program() -> Program {
    let mut k = KernelBuilder::new("bfs_level");
    emit_gtid(&mut k, r(0)); // node v
    emit_elem_addr(&mut k, r(1), P_DIST, r(0));
    k.ld(r(2), r(1), 0); // dist[v]
    k.isetp(p(0), CmpOp::Eq, r(2), Operand::Param(P_LEVEL));
    k.bra_ifn(p(0), "done");
    emit_elem_addr(&mut k, r(3), P_ROWS, r(0));
    k.ld(r(4), r(3), 0); // start
    k.ld(r(5), r(3), 4); // end
    k.isetp(p(1), CmpOp::Ge, r(4), r(5));
    k.bra_if(p(1), "done");
    // next level value = level + 1
    k.iadd(r(6), Operand::Param(P_LEVEL), 1i32);
    k.label("edges");
    emit_elem_addr(&mut k, r(7), P_COLS, r(4));
    k.ld(r(8), r(7), 0); // neighbour w
    emit_elem_addr(&mut k, r(9), P_DIST, r(8));
    k.ld(r(10), r(9), 0); // dist[w]
    k.isetp(p(2), CmpOp::Eq, r(10), Operand::Imm(INF));
    k.guard_t(p(2)).st(r(9), 0, r(6));
    k.iadd(r(4), r(4), 1i32);
    k.isetp(p(3), CmpOp::Lt, r(4), r(5));
    k.bra_if(p(3), "edges");
    k.label("done");
    k.exit();
    k.build().expect("bfs assembles")
}

/// Random CSR graph: `n` nodes, degree `1 + lcg % max_deg`.
fn build_graph(n: u32, max_deg: u32, seed: u32) -> (Vec<u32>, Vec<u32>) {
    let mut rng = Lcg(seed);
    let mut rows = Vec::with_capacity(n as usize + 1);
    let mut cols = Vec::new();
    rows.push(0u32);
    for _ in 0..n {
        let deg = 1 + rng.below(max_deg);
        for _ in 0..deg {
            cols.push(rng.below(n));
        }
        rows.push(cols.len() as u32);
    }
    (rows, cols)
}

fn host_bfs(rows: &[u32], cols: &[u32], n: u32) -> Vec<u32> {
    let mut dist = vec![INF; n as usize];
    dist[0] = 0;
    let mut frontier = vec![0u32];
    let mut level = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for e in rows[v as usize]..rows[v as usize + 1] {
                let w = cols[e as usize] as usize;
                if dist[w] == INF {
                    dist[w] = level + 1;
                    next.push(w as u32);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    dist
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn category(&self) -> Category {
        Category::Irregular
    }

    fn prepare(&self, scale: Scale) -> Prepared {
        let (n, max_deg): (u32, u32) = match scale {
            Scale::Test => (1024, 8),
            Scale::Bench => (8192, 16),
        };
        let (rows, cols) = build_graph(n, max_deg, 0xbf5);
        let expected = host_bfs(&rows, &cols, n);
        let levels = expected
            .iter()
            .filter(|&&d| d != INF)
            .copied()
            .max()
            .unwrap_or(0);
        let (prow, pcol, pdist) = (region(0), region(1), region(2));
        let mut dist0 = vec![INF; n as usize];
        dist0[0] = 0;
        let launches = (0..levels)
            .map(|level| {
                Launch::new(program(), n / 256, 256).with_params(vec![prow, pcol, pdist, level])
            })
            .collect();
        Prepared {
            launches,
            inputs: vec![(prow, rows), (pcol, cols), (pdist, dist0)],
            verify: Box::new(move |mem| {
                assert_exact(&mem.read_words(pdist, n as usize), &expected)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_prepared;
    use warpweave_core::SmConfig;

    #[test]
    fn host_bfs_on_path_graph() {
        // 0 → 1 → 2 → 3
        let rows = vec![0, 1, 2, 3, 3];
        let cols = vec![1, 2, 3];
        assert_eq!(host_bfs(&rows, &cols, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn verifies_on_baseline() {
        run_prepared(&SmConfig::baseline(), Bfs.prepare(Scale::Test), true).unwrap();
    }

    #[test]
    fn verifies_on_sbi_swi() {
        run_prepared(&SmConfig::sbi_swi(), Bfs.prepare(Scale::Test), true).unwrap();
    }
}
