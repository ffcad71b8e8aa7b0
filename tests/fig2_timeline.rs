//! Fig. 2 on equal hardware: every panel of the figure, and the plain
//! 64-wide warp beside them, runs the toy kernel's 8 threads on 4 MAD lanes
//! (`bench::grid::fig2_shrink`), and what each one issues is pinned.

use warpweave::bench::grid::{fig2_configs, fig2_launch, fig2_shrink};
use warpweave::{Sm, SmConfig};

#[test]
fn fig2_panels_run_on_equal_hardware() {
    let mut configs = fig2_configs();
    configs.push(fig2_shrink(SmConfig::warp64()));
    let got: Vec<(String, [u64; 5])> = configs
        .into_iter()
        .map(|cfg| {
            assert_eq!(
                (cfg.num_warps * cfg.warp_width, cfg.mad_lanes),
                (8, 4),
                "{}: 8 threads on 4 MAD lanes",
                cfg.name
            );
            let name = cfg.name.clone();
            let mut sm = Sm::new(cfg, fig2_launch()).expect("valid configuration");
            let s = sm.run(10_000).expect("toy kernel finishes");
            (
                name,
                [
                    s.cycles,
                    s.thread_instructions,
                    s.same_group_coissues,
                    s.other_group_coissues,
                    s.scheduler_conflicts,
                ],
            )
        })
        .collect();
    // (cycles, thread_instructions, same_group_coissues,
    // other_group_coissues, scheduler_conflicts)
    let want = [
        ("(a) SIMT baseline", [41, 68, 0, 0, 0]),
        ("(b) SBI, no constraints", [45, 68, 3, 6, 0]),
        ("(c) SBI with reconvergence constraints", [38, 68, 2, 5, 0]),
        ("(d) SWI", [42, 68, 0, 14, 10]),
        ("(e) SBI+SWI", [41, 68, 2, 13, 10]),
        ("Warp64", [40, 68, 0, 0, 0]),
    ]
    .map(|(name, counters)| (name.to_string(), counters));
    assert_eq!(got, want);
}
