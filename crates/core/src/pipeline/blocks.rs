//! Block lifecycle: barrier releases, and retiring a finished block's
//! slot and launching the next block into it.

use super::{Divergence, Sm};
use crate::config::DivergenceModel;
use crate::divergence::frontier::FrontierHeap;
use crate::mask::Mask;

impl Sm {
    /// Barrier releases, block retirements and launches for the block
    /// slots an event flagged since the last call — in ascending order, so
    /// fresh blocks land in the lowest free slot first. An unflagged slot's
    /// conditions cannot have changed, and it is not visited.
    pub(super) fn block_events(&mut self) {
        let mut flagged = std::mem::take(&mut self.block_flags);
        while flagged != 0 {
            let b = flagged.trailing_zeros() as usize;
            flagged &= flagged - 1;
            #[cfg(debug_assertions)]
            self.audit(|a| a.block_visits += 2);
            self.release_barrier(b);
            self.refill_block(b);
        }
    }

    /// Releases block slot `b`'s barrier once every live thread arrived.
    fn release_barrier(&mut self, b: usize) {
        let blk = self.blocks[b];
        if !blk.active || blk.barrier_arrived == 0 || blk.barrier_arrived < blk.alive_threads {
            return;
        }
        for w in blk.first_warp..blk.first_warp + blk.num_warps {
            match &mut self.warps[w].div {
                Divergence::Stack(s) => s.release_barrier(),
                Divergence::Frontier(h) => h.release_barrier(),
            }
            self.rearm_warp(w);
        }
        self.blocks[b].barrier_arrived = 0;
        self.stats.barrier_releases += 1;
        self.last_progress = self.cycle;
    }

    /// Retires block slot `b`'s block if it finished and drained, then
    /// assigns the next pending block to the slot if it is free.
    fn refill_block(&mut self, b: usize) {
        let blk = self.blocks[b];
        // Wait for the warps' scoreboards to drain before recycling.
        if blk.active
            && blk.alive_threads == 0
            && (blk.first_warp..blk.first_warp + blk.num_warps)
                .all(|w| self.warps[w].scoreboard.in_flight() == 0)
        {
            self.blocks[b].active = false;
            self.active_blocks -= 1;
            for w in blk.first_warp..blk.first_warp + blk.num_warps {
                self.warps[w].alive = false;
                self.warps[w].ibuf = [None, None];
                self.rearm_warp(w);
            }
            self.stats.blocks_completed += 1;
            self.last_progress = self.cycle;
        }
        if !self.blocks[b].active && (self.next_block as usize) < self.block_ids.len() {
            let block_id = self.block_ids[self.next_block as usize];
            self.next_block += 1;
            self.assign_block(b, block_id);
            self.last_progress = self.cycle;
        }
    }

    fn assign_block(&mut self, slot: usize, block_id: u32) {
        let blk = &mut self.blocks[slot];
        blk.active = true;
        blk.block_id = block_id;
        blk.alive_threads = self.block_threads;
        blk.barrier_arrived = 0;
        let first = blk.first_warp;
        let nwarps = blk.num_warps;
        self.active_blocks += 1;
        self.shared[slot].clear();
        let width = self.cfg.warp_width;
        for wi in 0..nwarps {
            let w = first + wi;
            let base_tid = (wi * width) as u32;
            let populated: Mask = (0..width)
                .filter(|&t| base_tid + (t as u32) < self.block_threads)
                .collect();
            let warp = &mut self.warps[w];
            warp.alive = true;
            warp.block_slot = slot;
            warp.exited = Mask::EMPTY;
            warp.populated = populated;
            // Zero-fill the SoA register file and re-seed the launch
            // coordinates in place — no per-launch reallocation.
            warp.regs.reset();
            warp.info.seed(
                base_tid,
                block_id,
                self.block_threads,
                self.grid_blocks,
                w as u32,
                self.cfg.lane_shuffle,
                width,
                self.cfg.num_warps,
            );
            // `refill_block` recycles a slot only once its scoreboards
            // have drained, so the (empty) table is reused as it stands.
            debug_assert_eq!(warp.scoreboard.in_flight(), 0);
            warp.ibuf = [None, None];
            // Restart the divergence state in place (a relaunch allocates
            // nothing); only a warp's first launch under the frontier model
            // replaces the construction-time placeholder.
            match (&mut warp.div, self.cfg.divergence) {
                (Divergence::Stack(s), DivergenceModel::Stack) => s.reset(populated),
                (Divergence::Frontier(h), _) => h.reset(populated),
                (div, DivergenceModel::Frontier) => {
                    *div = Divergence::Frontier(FrontierHeap::new(populated));
                }
            }
            self.rearm_warp(w);
        }
    }
}
