//! Fetch: two channels refill instruction-buffer entries.

use super::{IbufEntry, SlotState, Sm};

impl Sm {
    /// Two fetch/decode channels refill instruction-buffer entries
    /// round-robin (1 instruction per channel per cycle — paper §2).
    /// The channel domains — ordered preferences of (parity filter, slot)
    /// — come from the issue policy: dual-pool policies split the pool by
    /// parity, SBI-style policies follow the CPC2 stream on channel 1 but
    /// fall back to the CPC1 stream when no warp has a secondary split to
    /// fetch for (otherwise the channel would idle on convergent code).
    ///
    /// Returns whether any channel filled a buffer entry this cycle.
    pub(super) fn fetch(&mut self) -> bool {
        // Even/odd warp-id masks for parity-filtered channel domains.
        const EVEN: u64 = 0x5555_5555_5555_5555;
        let mut any = false;
        let nw = self.cfg.num_warps;
        let channels = self.policy().fetch_channels();
        for (ch, prefs) in channels.into_iter().enumerate() {
            let rr = self.fetch_rr[ch];
            // `fetchable` is exact, so the channel's pick is the first
            // preference with a candidate at all, and of those the first at
            // or after the round-robin pointer, wrapping — the linear
            // scan's order with no probe that can miss.
            let pick = prefs.iter().find_map(|&(parity, slot)| {
                let cands = self.fetchable[slot]
                    & match parity {
                        None => !0,
                        Some(0) => EVEN,
                        Some(_) => !EVEN,
                    };
                let ahead = cands & !((1u64 << rr) - 1);
                let first = if ahead != 0 { ahead } else { cands };
                (cands != 0).then(|| (first.trailing_zeros() as usize, slot))
            });
            let Some((w, slot)) = pick else {
                self.fetch_rr[ch] = (rr + 1) % nw;
                continue;
            };
            #[cfg(debug_assertions)]
            self.audit(|a| {
                a.fetch_probes += 1;
                a.fetch_fills += 1;
            });
            let (pc, _, _) = self.ctx(w, slot).expect("a fetchable slot has a context");
            self.warps[w].ibuf[slot] = Some(IbufEntry {
                pc,
                seq: self.next_seq,
            });
            self.next_seq += 1;
            // The fill event: it wakes the slot only if the buffer was all
            // it waited for; the other slot reads nothing the fill wrote.
            let bit = 1u64 << w;
            self.fetchable[slot] &= !bit;
            let woken = self.partition.warps(slot, SlotState::Woken);
            debug_assert_eq!(woken & bit, 0, "empty yet woken");
            self.partition.wake(w, slot, &[SlotState::IbufEmpty]);
            // Tagged with its own context's pc, the entry leaves a clean
            // warp a fixed point of re-association — unless the primary
            // context sits at the same pc with nothing buffered (one of the
            // pair parked at a barrier), which would claim it.
            if slot == 1
                && self.warps[w].ibuf[0].is_none()
                && self.ctx(w, 0).is_some_and(|(pc0, _, _)| pc0 == pc)
            {
                self.ctx_dirty |= bit;
            }
            #[cfg(debug_assertions)]
            self.assert_clean_warp_is_fixed_point(w);
            self.fetch_rr[ch] = (w + 1) % nw;
            any = true;
        }
        any
    }
}
