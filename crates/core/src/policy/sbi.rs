//! Simultaneous Branch Interweaving (paper §3): the single scheduler
//! picks the warp with the oldest ready *primary* (CPC1) instruction and
//! the second front-end co-issues the same warp's CPC2 where resources
//! allow.

use warpweave_isa::UnitClass;

use super::{FetchChannels, FetchPref, IssueCtx, IssuePolicy, Pick};

/// The SBI front-end. Scheduling is primary-led: the leading split never
/// advances while the laggard stalls, so desynchronised splits can catch
/// up and re-merge (fig. 3: one `wid` feeds both fetch paths). When the
/// picked warp offers no co-issuable secondary, the second front-end
/// falls back to the oldest ready instruction of another warp for a
/// *different* free SIMD group (conventional multiple-issue — full masks
/// cannot share lanes). Both picks are [`IssueCtx::oldest_ready`] scans,
/// so a cycle's cost follows the warps that woke, not the pool size.
#[derive(Debug, Default)]
pub struct SbiPolicy;

const CHANNELS: FetchChannels = {
    const CPC1: &[FetchPref] = &[(None, 0)];
    const CPC2: &[FetchPref] = &[(None, 1), (None, 0)];
    [CPC1, CPC2]
};

impl IssuePolicy for SbiPolicy {
    fn issue(&mut self, ctx: &mut IssueCtx<'_>) -> usize {
        let Some(r1) = ctx.oldest_ready(0, !0, !0) else {
            return 0;
        };
        let w = r1.warp;
        let Some(d1) = ctx.plan_dispatch(r1.unit) else {
            return 0;
        };
        let p1 = Pick {
            ready: r1,
            dispatch: d1,
            secondary: false,
        };
        // Fixed two-slot pick buffer (second slot unused unless co-issued).
        let mut picks = [p1, p1];
        let mut n = 1;
        if let Some(r2) = ctx.ready_check(w, 1) {
            if let Some(d2) = ctx.plan_coissue(&r1, d1, &r2) {
                picks[n] = Pick {
                    ready: r2,
                    dispatch: d2,
                    secondary: true,
                };
                n += 1;
            }
        }
        let mut issued = n;
        if n == 1 {
            // Other-warp fallback for the idle front-end: the oldest
            // ready instruction that needs no port of the primary's class.
            let classes = match r1.unit {
                UnitClass::Control => !0,
                unit => !(1 << unit as u8),
            };
            if let Some(r) = ctx.oldest_ready(0, !(1u64 << w), classes) {
                // At most one divergence per cycle.
                if !(ctx.is_branch(r1.pc) && ctx.is_branch(r.pc)) {
                    let dispatch = ctx.plan_dispatch(r.unit).expect("scanned port-free");
                    issued += 1;
                    ctx.commit(
                        r.warp,
                        &[Pick {
                            ready: r,
                            dispatch,
                            secondary: true,
                        }],
                    );
                }
            }
        }
        ctx.commit(w, &picks[..n]);
        issued
    }

    fn fetch_channels(&self) -> FetchChannels {
        CHANNELS
    }
}
