//! The baseline dual-pool front-end (paper §2, fig. 1), shared by the
//! `Baseline`, `Warp64` and `GreedyThenOldest` registry entries.

use super::{FetchChannels, FetchPref, IssueCtx, IssuePolicy, Pick};

/// Two warp pools by warp-ID parity, one scheduler each, one issue per
/// pool per cycle. [`DualPoolPolicy::oldest_first`] picks each pool's
/// oldest ready instruction (the paper's baseline);
/// [`DualPoolPolicy::greedy`] lets the warp that issued last in a pool keep
/// priority while it stays ready (greedy-then-oldest).
#[derive(Debug)]
pub struct DualPoolPolicy {
    greedy: bool,
    /// Per-pool warp that issued most recently (GTO's greedy handle).
    last: [Option<usize>; 2],
}

const CHANNELS: FetchChannels = {
    const EVEN: &[FetchPref] = &[(Some(0), 0)];
    const ODD: &[FetchPref] = &[(Some(1), 0)];
    [EVEN, ODD]
};

impl DualPoolPolicy {
    /// Strict oldest-first: the ready instruction with the smallest fetch
    /// sequence number wins.
    pub fn oldest_first() -> DualPoolPolicy {
        DualPoolPolicy {
            greedy: false,
            last: [None, None],
        }
    }

    /// Greedy-then-oldest (GTO): the pool's last-issued warp keeps priority
    /// while it stays ready; when it stalls, fall back to oldest-first.
    pub fn greedy() -> DualPoolPolicy {
        DualPoolPolicy {
            greedy: true,
            last: [None, None],
        }
    }
}

impl IssuePolicy for DualPoolPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        let mut issued = 0;
        let first = (ctx.cycle() % 2) as usize;
        for pool in [first, 1 - first] {
            // Greedy handle first (GTO only), else the pool's oldest.
            let held = self.last[pool].filter(|_| self.greedy);
            let best = held.and_then(|w| ctx.ready_check(w, 0)).or_else(|| {
                const EVEN: u64 = 0x5555_5555_5555_5555;
                let pool_mask = if pool == 0 { EVEN } else { !EVEN };
                ctx.oldest_ready(0, pool_mask, !0)
            });
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
