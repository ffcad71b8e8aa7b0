//! The baseline dual-pool front-end (paper §2, fig. 1), shared by the
//! `Baseline`, `Warp64` and `GreedyThenOldest` registry entries.

use super::{FetchChannels, FetchPref, IssueCtx, IssuePolicy, Pick, Ready, SchedOrder};

/// Two warp pools by warp-ID parity, one scheduler each, one issue per
/// pool per cycle. Under [`SchedOrder::OldestFirst`] each pool picks its
/// oldest ready instruction (the paper's baseline); under
/// [`SchedOrder::GreedyThenOldest`] the warp that issued last in a pool
/// keeps priority while it stays ready.
#[derive(Debug, Default)]
pub struct DualPoolPolicy {
    order: SchedOrder,
    /// Per-pool warp that issued most recently (GTO's greedy handle).
    last: [Option<usize>; 2],
}

const CHANNELS: FetchChannels = {
    const EVEN: &[FetchPref] = &[(Some(0), 0)];
    const ODD: &[FetchPref] = &[(Some(1), 0)];
    [EVEN, ODD]
};

impl DualPoolPolicy {
    /// A dual-pool scheduler walking candidates in `order`.
    pub fn new(order: SchedOrder) -> DualPoolPolicy {
        DualPoolPolicy {
            order,
            last: [None, None],
        }
    }
}

impl IssuePolicy for DualPoolPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        let mut issued = 0;
        let first = (ctx.cycle() % 2) as usize;
        for pool in [first, 1 - first] {
            // Greedy handle first (GTO only): the pool's last-issued warp
            // retains priority while it has a ready instruction.
            let mut best: Option<Ready> = None;
            if self.order == SchedOrder::GreedyThenOldest {
                if let Some(w) = self.last[pool] {
                    best = ctx.ready_check(w, 0);
                }
            }
            if best.is_none() {
                const EVEN: u64 = 0x5555_5555_5555_5555;
                let pool_mask = if pool == 0 { EVEN } else { !EVEN };
                best = ctx.oldest_ready(0, pool_mask, !0);
            }
            if let Some(r) = best {
                if let Some(dispatch) = ctx.plan_dispatch(r.unit) {
                    self.last[pool] = Some(r.warp);
                    ctx.commit(
                        r.warp,
                        &[Pick {
                            ready: r,
                            dispatch,
                            secondary: false,
                        }],
                    );
                    issued += 1;
                }
            }
        }
        issued
    }

    fn fetch_channels(&self) -> FetchChannels {
        CHANNELS
    }
}
