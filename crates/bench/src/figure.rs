//! The paper's figures and tables as one table ([`FIGURES`]) behind one
//! binary, `figure <name> [--set regular|irregular|all] [--no-verify]
//! [--frontend NAMES]`.
//!
//! A figure with workload sets runs exactly one grid through [`run_grid`],
//! its configs × the selected rows; fig. 7 and the summary run the 21-row
//! union grid once and report each set from its own rows. Fig. 2 and
//! tables 3–4 run no grid. [`parse`] reads the command line with
//! [`crate::cli`]: each figure is a command, so a flag means the same for
//! every figure that takes it, and a flag a figure cannot honour is a
//! usage error, never silently ignored.

use warpweave_core::checkpoint::SweepCheckpoint;
use warpweave_core::{render_timeline, Sm, SmConfig, SweepRunner};
use warpweave_mem::DramConfig;
use warpweave_workloads::{all_workloads, by_name, irregular, regular, Category, Scale, Workload};

use crate::cli;
use crate::grid::{self, grid_id};
use crate::harness::{gmean, matrix_jobs, run_grid, CellFailure, CellResult, MatrixResult};
use crate::report::matrix_from_store;

/// One artefact of the paper's evaluation.
pub struct Figure {
    /// The `figure <name>` argument.
    pub name: &'static str,
    /// What of the paper it regenerates.
    pub artefact: &'static str,
    /// The grid's columns (fig. 2: its panels; the tables take none).
    pub configs: fn() -> Vec<SmConfig>,
    /// The `--set` values the figure takes (`regular`, `irregular`,
    /// `all`), its default first; empty for an artefact that runs no grid.
    pub sets: &'static [&'static str],
    /// How a `--frontend` policy preset becomes a column, for the figures
    /// that take the flag.
    pub frontend: Option<fn(SmConfig) -> SmConfig>,
    /// Renders the artefact from its invocation and its grid's matrix.
    pub report: fn(&Invocation, &MatrixResult) -> String,
}

const BOTH: &[&str] = &["irregular", "regular"];
const IRREGULAR: &[&str] = &["irregular"];

/// Every artefact `figure` regenerates.
pub static FIGURES: [Figure; 10] = [
    Figure {
        name: "fig2",
        artefact: "fig. 2 — issue timelines of the five front-ends, each 8 threads on 4 MAD lanes",
        configs: grid::fig2_configs,
        sets: &[],
        frontend: Some(grid::fig2_shrink),
        report: fig2,
    },
    Figure {
        name: "fig7",
        artefact:
            "fig. 7a/7b — IPC of Baseline/SBI/SWI/SBI+SWI/Warp64 on the regular & irregular sets",
        configs: grid::figure7_configs,
        sets: &["all", "regular", "irregular"],
        frontend: Some(|cfg| cfg),
        report: fig7,
    },
    Figure {
        name: "fig8a",
        artefact: "fig. 8a — SBI reconvergence-constraint speedups",
        configs: grid::constraint_configs,
        sets: IRREGULAR,
        frontend: None,
        report: fig8a,
    },
    Figure {
        name: "fig8b",
        artefact: "fig. 8b — SWI lane-shuffling policies (table 1)",
        configs: grid::lane_shuffle_configs,
        sets: BOTH,
        frontend: None,
        report: fig8b,
    },
    Figure {
        name: "fig9",
        artefact: "fig. 9 — SWI lookup associativity points",
        configs: grid::associativity_configs,
        sets: BOTH,
        frontend: None,
        report: fig9,
    },
    Figure {
        name: "table3",
        artefact: "table 3 — storage cost of each technique",
        configs: Vec::new,
        sets: &[],
        frontend: None,
        report: |_, _| {
            let p = warpweave_hwcost::HwParams::default();
            format!("{}\n", warpweave_hwcost::format_table3(&p))
        },
    },
    Figure {
        name: "table4",
        artefact: "table 4 — component areas and SM overhead",
        configs: Vec::new,
        sets: &[],
        frontend: None,
        report: |_, _| {
            let p = warpweave_hwcost::HwParams::default();
            let c = warpweave_hwcost::AreaCoefficients::default();
            format!("{}\n", warpweave_hwcost::format_table4(&p, &c))
        },
    },
    Figure {
        name: "ablation-scoreboard",
        artefact: "§3.4 ablation — dependency-matrix scoreboard vs an exact-mask oracle",
        configs: grid::scoreboard_configs,
        sets: IRREGULAR,
        frontend: None,
        report: scoreboard,
    },
    Figure {
        name: "ablation-sideband",
        artefact: "§3.4 ablation — modelled CCT sideband sorter vs an ideally sorted CCT",
        configs: grid::sideband_configs,
        sets: IRREGULAR,
        frontend: None,
        report: sideband,
    },
    Figure {
        name: "summary",
        artefact: "§5.1/§7 headline gmean speedups",
        configs: grid::figure7_configs,
        sets: &["all"],
        frontend: None,
        report: summary,
    },
];

/// A parsed `figure` command line.
pub struct Invocation {
    /// The artefact to render.
    pub figure: &'static Figure,
    /// The selected `--set`; `None` when the figure runs no grid.
    pub set: Option<&'static str>,
    /// The grid's columns: the figure's own, or the `--frontend` policies.
    pub configs: Vec<SmConfig>,
    /// False under `--no-verify`.
    pub verify: bool,
}

/// Parses `figure`'s arguments (without the program name) against the
/// table: one command per figure, its name first.
///
/// # Errors
/// The one-line usage error: besides [`cli::parse`]'s, an unknown
/// `--frontend` policy or one listed twice.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let synopses: Vec<String> = FIGURES.iter().map(Figure::synopsis).collect();
    let a = cli::parse(&synopses, args)?;
    let figure = FIGURES
        .iter()
        .find(|f| f.name == a.command)
        .expect("a table entry");
    let set = match a.value("--set") {
        Some(value) => figure.sets.iter().copied().find(|s| *s == value),
        None => figure.sets.first().copied(),
    };
    let configs = match (a.value("--frontend"), figure.frontend) {
        (Some(names), Some(column)) => SmConfig::with_policies(names.split(',').map(str::trim))
            .map_err(|e| format!("--frontend: {e}"))?
            .into_iter()
            .map(column)
            .collect(),
        _ => (figure.configs)(),
    };
    Ok(Invocation {
        figure,
        set,
        configs,
        verify: !a.has("--no-verify"),
    })
}

impl Figure {
    /// The figure's synopsis: a grid figure takes `--set` (one of its
    /// sets) and `--no-verify`, fig. 2 and fig. 7 `--frontend`.
    fn synopsis(&self) -> String {
        let mut synopsis = self.name.to_string();
        if !self.sets.is_empty() {
            let sets = self.sets.join("|");
            synopsis += &format!(" [--set {sets}] [--no-verify]");
        }
        if self.frontend.is_some() {
            synopsis += " [--frontend NAMES]";
        }
        synopsis
    }
}

impl Invocation {
    /// The selected set's workload rows (none when the figure runs no
    /// grid).
    pub fn workloads(&self) -> Vec<Box<dyn Workload>> {
        match self.set {
            None => Vec::new(),
            Some("regular") => regular(),
            Some("irregular") => irregular(),
            Some(_) => all_workloads(),
        }
    }

    /// Runs the figure's one grid, `configs × workloads` at `scale`,
    /// through [`run_grid`]: each cell once, fault-isolated.
    ///
    /// # Errors
    /// The quarantined jobs, when any job failed.
    pub fn matrix(
        &self,
        runner: &SweepRunner,
        scale: Scale,
        workloads: &[Box<dyn Workload>],
    ) -> Result<MatrixResult, Vec<CellFailure>> {
        let mut store = SweepCheckpoint::in_memory(grid_id(&self.configs, workloads, scale));
        let jobs = matrix_jobs(&self.configs, workloads);
        let failures = run_grid(runner, &jobs, scale, self.verify, &mut store)
            .expect("an in-memory store records infallibly");
        if !failures.is_empty() {
            return Err(failures);
        }
        Ok(matrix_from_store(&self.configs, workloads, &store)
            .expect("no failures, so the grid completes"))
    }
}

/// The rows of `m` whose workload is in `category`.
fn rows_in(m: &MatrixResult, category: Category) -> Vec<usize> {
    (0..m.workloads.len())
        .filter(|&w| by_name(&m.workloads[w]).is_some_and(|x| x.category() == category))
        .collect()
}

/// Per config, the arithmetic mean of `f(cell)` over `m`'s mean rows of
/// `rows` (0 for none).
fn mean_per_config(m: &MatrixResult, rows: &[usize], f: impl Fn(&CellResult) -> f64) -> Vec<f64> {
    let rows = m.mean_rows(rows);
    (0..m.configs.len())
        .map(|c| {
            if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|&w| f(&m.cells[w][c])).sum::<f64>() / rows.len() as f64
            }
        })
        .collect()
}

/// One table line: `label`, then the cells.
fn line(label: &str, cells: impl Iterator<Item = String>) -> String {
    format!("{label:<22}{}\n", cells.collect::<String>())
}

/// A table of `rows` × the configs from column `first`: the config names
/// beside `corner`, then `value(w, c)` per cell, then `footer` rows of one
/// value per config; every column `width` wide, `prec` decimals.
fn table(
    m: &MatrixResult,
    corner: &str,
    rows: &[usize],
    (first, width, prec): (usize, usize, usize),
    value: impl Fn(usize, usize) -> f64,
    footer: &[(&str, Vec<f64>)],
) -> String {
    let names = m.configs[first..].iter().map(|c| format!("{c:>width$}"));
    let mut out = line(corner, names);
    for &w in rows {
        let cells = (first..m.configs.len()).map(|c| format!("{:>width$.prec$}", value(w, c)));
        out += &line(&m.workloads[w], cells);
    }
    for (label, values) in footer {
        let cells = values[first..].iter().map(|v| format!("{v:>width$.prec$}"));
        out += &line(label, cells);
    }
    out
}

/// An IPC table over `rows`, with a gmean row labelled `mean_label`.
fn ipc_table(m: &MatrixResult, rows: &[usize], mean_label: &str) -> String {
    let footer = [(mean_label, m.gmean_ipc(&m.mean_rows(rows)))];
    table(
        m,
        "benchmark",
        rows,
        (0, 12, 1),
        |w, c| m.ipc(w, c),
        &footer,
    )
}

/// Each config's IPC relative to column 0, from column `first` on.
fn ratio_table(m: &MatrixResult, rows: &[usize], first: usize, width: usize) -> String {
    let ratio = |w: usize, c: usize| m.ipc(w, c) / m.ipc(w, 0);
    let means = m.mean_rows(rows);
    let gmeans = (0..m.configs.len())
        .map(|c| gmean(means.iter().map(|&w| ratio(w, c))))
        .collect();
    let footer = [("Gmean (excl. TMD)", gmeans)];
    table(m, "benchmark", rows, (first, width, 3), ratio, &footer)
}

/// The bandwidth-saturation companion of an IPC table: each cell's DRAM
/// utilization in percent, with mean-utilization and queue-delay rows.
fn bandwidth_table(m: &MatrixResult, dram: &DramConfig, rows: &[usize]) -> String {
    let util = |cell: &CellResult| cell.stats.dram_utilization(dram);
    let utils = mean_per_config(m, rows, util);
    let means = utils.iter().map(|u| u * 100.0).collect();
    let delays = mean_per_config(m, rows, |cell| cell.stats.avg_dram_queue_delay());
    let footer = [("Mean util %", means), ("Queue delay (cy)", delays)];
    let value = |w: usize, c: usize| util(&m.cells[w][c]) * 100.0;
    table(m, "dram util %", rows, (0, 12, 1), value, &footer)
}

/// The compact per-config bandwidth summary below a speedup table.
fn bandwidth_summary(m: &MatrixResult, dram: &DramConfig, rows: &[usize]) -> String {
    let utils = mean_per_config(m, rows, |cell| cell.stats.dram_utilization(dram));
    let delays = mean_per_config(m, rows, |cell| cell.stats.avg_dram_queue_delay());
    let width = m.configs.iter().map(String::len).max().unwrap_or(0).max(14);
    let mut out = String::from("DRAM saturation (mean over shown rows):\n");
    for (c, name) in m.configs.iter().enumerate() {
        out += &format!(
            "  {:<width$} {:5.1}% of bandwidth, {:6.1} cy avg queue delay\n",
            name,
            utils[c] * 100.0,
            delays[c]
        );
    }
    out
}

/// Fig. 2: each config traced over the toy kernel. Instruction numbering
/// follows the paper: 1 = the divergent branch, 2–4 = the `if` side, 5 =
/// the `else` side, 6 = the reconverged tail.
fn fig2(inv: &Invocation, _: &MatrixResult) -> String {
    let mut out = String::new();
    for cfg in &inv.configs {
        let (warps, width) = (cfg.num_warps, cfg.warp_width);
        let mut sm = Sm::new(cfg.clone(), grid::fig2_launch()).expect("valid configuration");
        sm.enable_trace();
        sm.run(10_000).expect("toy kernel finishes");
        let s = sm.stats();
        out += &format!(
            "== {} ==\n(cells show the issued PC per thread; '.' = lane idle)\n\n{}\n\
             cycles: {}  thread-instructions: {}  IPC: {:.2}\n\n",
            cfg.name,
            render_timeline(sm.trace_events(), warps, width),
            s.cycles,
            s.thread_instructions,
            s.ipc()
        );
    }
    out
}

/// Fig. 7: an IPC and a bandwidth table per set present, and the
/// irregular set's speedups over the first column.
fn fig7(inv: &Invocation, m: &MatrixResult) -> String {
    let mut out = String::new();
    let regular = rows_in(m, Category::Regular);
    if !regular.is_empty() {
        out += "== Figure 7(a): regular applications (IPC) ==\n";
        out += &ipc_table(m, &regular, "Gmean");
        out += "\n== DRAM bandwidth saturation (regular) ==\n";
        out += &bandwidth_table(m, &inv.configs[0].dram, &regular);
        out.push('\n');
    }
    let irregular = rows_in(m, Category::Irregular);
    if !irregular.is_empty() {
        out += "== Figure 7(b): irregular applications (IPC) ==\n";
        out += &ipc_table(m, &irregular, "Gmean (excl. TMD)");
        // Headline speedups vs the baseline (paper §5.1 / §7).
        let g = m.gmean_ipc(&m.mean_rows(&irregular));
        out += "\nspeedup vs baseline (irregular):\n";
        for (c, name) in m.configs.iter().enumerate().skip(1) {
            out += &format!("  {:<10} {:+.1}%\n", name, (g[c] / g[0] - 1.0) * 100.0);
        }
        out += "\n== DRAM bandwidth saturation (irregular) ==\n";
        out += &bandwidth_table(m, &inv.configs[0].dram, &irregular);
    }
    out
}

/// Fig. 8a: constraints-on over constraints-off for SBI (columns 1/0) and
/// SBI+SWI (3/2), in IPC and in issued warp-instructions.
fn fig8a(inv: &Invocation, m: &MatrixResult) -> String {
    let speedup = |w: usize, on: usize| m.ipc(w, on) / m.ipc(w, on - 1);
    let insn = |w: usize, on: usize| {
        let issued = |c: usize| m.cells[w][c].stats.warp_instructions as f64;
        issued(on) / issued(on - 1) - 1.0
    };
    let mut out =
        String::from("== Figure 8(a): speedup of reconvergence constraints (irregular) ==\n");
    out += &format!(
        "{:<22}{:>12}{:>12}{:>14}{:>14}\n",
        "benchmark", "SBI", "SBI+SWI", "insn SBI", "insn Both"
    );
    let line = |label: &str, values: [f64; 4]| {
        format!(
            "{label:<22}{:>12.3}{:>12.3}{:>13.1}%{:>13.1}%\n",
            values[0],
            values[1],
            values[2] * 100.0,
            values[3] * 100.0
        )
    };
    let rows: Vec<usize> = (0..m.workloads.len()).collect();
    for &w in &rows {
        let values = [speedup(w, 1), speedup(w, 3), insn(w, 1), insn(w, 3)];
        out += &line(&m.workloads[w], values);
    }
    let means = m.mean_rows(&rows);
    let mean_insn = |on| means.iter().map(|&w| insn(w, on)).sum::<f64>() / means.len() as f64;
    let values = [
        gmean(means.iter().map(|&w| speedup(w, 1))),
        gmean(means.iter().map(|&w| speedup(w, 3))),
        mean_insn(1),
        mean_insn(3),
    ];
    out += &line("Gmean (excl. TMD)", values);
    out.push('\n');
    out += &bandwidth_summary(m, &inv.configs[0].dram, &rows);
    out += "\npaper: constraints ≈ ±0.1% IPC on SBI alone; SortingNetworks +2.4% with\n\
            SBI+SWI; BFS/Histogram held back; instructions reduced 1.3%/5.5%.\n";
    out
}

/// Fig. 8b: each lane-shuffling policy's speedup over Identity (column 0).
fn fig8b(inv: &Invocation, m: &MatrixResult) -> String {
    let rows: Vec<usize> = (0..m.workloads.len()).collect();
    format!(
        "== Figure 8(b): SWI lane-shuffling speedup over Identity ({}) ==\n{}\n{}\n\
         paper: XorRev is the most consistent (gmean +1.4% irregular, +0.3% regular;\n\
         Needleman-Wunsch up to +7.7%, 3dfd −1.8%).\n",
        inv.set.unwrap_or_default(),
        ratio_table(m, &rows, 1, 12),
        bandwidth_summary(m, &inv.configs[0].dram, &rows)
    )
}

/// Fig. 9: each lookup associativity relative to the fully-associative
/// CAM (column 0).
fn fig9(inv: &Invocation, m: &MatrixResult) -> String {
    let rows: Vec<usize> = (0..m.workloads.len()).collect();
    format!(
        "== Figure 9: SWI lookup associativity, slowdown vs fully-associative ({}) ==\n{}\n{}\n\
         paper: even direct-mapped keeps ≥85% of fully-associative performance\n\
         (≥96% on regular applications).\n",
        inv.set.unwrap_or_default(),
        ratio_table(m, &rows, 0, 18),
        bandwidth_summary(m, &inv.configs[0].dram, &rows)
    )
}

/// The scoreboard ablation: the matrix scheme's IPC cost against the
/// exact-mask oracle.
fn scoreboard(_: &Invocation, m: &MatrixResult) -> String {
    let rows: Vec<usize> = (0..m.workloads.len()).collect();
    let g = m.gmean_ipc(&m.mean_rows(&rows));
    format!(
        "== Ablation: SBI scoreboard scheme (IPC, irregular) ==\n{}\n\
         matrix-scheme conservatism costs {:.2}% vs an exact-mask oracle\n",
        ipc_table(m, &rows, "Gmean (excl. TMD)"),
        (1.0 - g[0] / g[1]) * 100.0
    )
}

/// The sideband ablation: IPC of the modelled sorter against an ideal
/// CCT, and how often the modelled sorter degraded to stack order.
fn sideband(_: &Invocation, m: &MatrixResult) -> String {
    let rows: Vec<usize> = (0..m.workloads.len()).collect();
    let mut out =
        String::from("== Ablation: CCT sideband sorter vs ideal sorted CCT (IPC, irregular) ==\n");
    out += &ipc_table(m, &rows, "Gmean (excl. TMD)");
    out += "\nspills and degraded (stack-order) inserts under the modelled sorter:\n";
    for &w in &rows {
        let heap = &m.cells[w][0].stats.heap;
        if heap.spills > 0 {
            out += &format!(
                "  {:<22} spills {:>6}   degraded {:>6} ({:.1}%)\n",
                m.workloads[w],
                heap.spills,
                heap.degraded_inserts,
                heap.degraded_inserts as f64 / heap.spills as f64 * 100.0
            );
        }
    }
    out += "\npaper: heap order is an optimisation only; degraded mode matches today's\n\
            divergence stacks, and hot heap occupancy rarely exceeds 3 entries.\n";
    out
}

/// The headline numbers: each set's gmean IPC per config and its speedup
/// over the first column.
fn summary(_: &Invocation, m: &MatrixResult) -> String {
    let mut out = String::new();
    for (label, category) in [
        ("regular", Category::Regular),
        ("irregular", Category::Irregular),
    ] {
        let g = m.gmean_ipc(&m.mean_rows(&rows_in(m, category)));
        out += &format!("== {label} (gmean IPC, TMD excluded) ==\n");
        for (c, name) in m.configs.iter().enumerate() {
            out += &format!("  {:<10} {:6.1} IPC", name, g[c]);
            if c > 0 {
                out += &format!("  ({:+.1}% vs baseline)", (g[c] / g[0] - 1.0) * 100.0);
            }
            out.push('\n');
        }
    }
    out
}
