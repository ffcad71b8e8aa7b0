//! The back end: writebacks retiring scoreboard entries, functional
//! execution and its memory effects, LSU and SIMD-group timing, and the
//! DRAM path — the outbox, private-channel grants and their delivery to
//! the scoreboard entries waiting on them.

use warpweave_isa::{Instruction, MemSpace, Op, UnitClass};
use warpweave_mem::{
    atomic_transactions_rows, coalesce_rows, AccessShape, MemGrant, MemRequest, Memory,
};

use super::Sm;
use crate::exec::{execute_rows, MemRows};
use crate::lsu::{plan_global_into, shared_passes, waves_touched};
use crate::mask::Mask;
use crate::policy::Dispatch;
use crate::scoreboard::SbToken;

/// Cycles from an ALU / SFU instruction's last wave to its writeback
/// (table 2: 8), before the configured delivery latency.
const EXEC_LATENCY: u64 = 8;

/// Shared-memory latency: cycles from an access's last pass to its
/// writeback, before the configured delivery latency (not a table-2 row).
const SHARED_LATENCY: u64 = 10;

/// Payload of a pending-writeback event: which warp's scoreboard entry
/// retires when the event fires.
#[derive(Debug, Clone, Copy)]
pub(super) struct WbSlot {
    warp: usize,
    token: SbToken,
}

/// A scoreboard entry blocked on outstanding DRAM transactions: the warp's
/// dependants stay stalled until every grant in `first_seq..=last_seq` —
/// plus every MSHR-merged owner grant in `merged` — arrives, at which
/// point the entry becomes a timed writeback at
/// `max(floor, latest grant) + delivery`.
#[derive(Debug, Clone)]
pub(super) struct PendingMemOp {
    /// Own transaction range; empty (`first_seq > last_seq`) when the
    /// instruction's every miss merged onto other warps' transactions.
    pub(super) first_seq: u64,
    pub(super) last_seq: u64,
    /// Other warps' transaction seqs this entry merged onto (MSHR waits).
    pub(super) merged: Vec<u64>,
    /// Grants still outstanding (own range + merged).
    pub(super) remaining: u32,
    /// Completion floor from the instruction's L1-hit transactions.
    pub(super) floor: u64,
    /// Latest grant completion seen so far.
    pub(super) max_done: u64,
    pub(super) warp: usize,
    pub(super) token: SbToken,
}

/// When a pick's scoreboard entry retires.
#[derive(Debug, Clone)]
pub(super) enum WbTiming {
    /// At a cycle known at issue (includes delivery latency).
    At(u64),
    /// When DRAM transactions `first_seq..first_seq+count` and the merged
    /// owner transactions are granted (`floor` = the inline L1-hit
    /// completion, before delivery latency).
    Mem {
        first_seq: u64,
        count: u32,
        merged: Vec<u64>,
        floor: u64,
    },
}

impl Sm {
    // --- pipeline stages -------------------------------------------------------

    pub(super) fn process_writebacks(&mut self) {
        let now = self.cycle;
        let mut progressed = false;
        while let Some((_, wb)) = self.pending_wb.pop_ready(now) {
            self.warps[wb.warp].scoreboard.retire(wb.token);
            self.retired(wb.warp);
            progressed = true;
        }
        if progressed {
            self.last_progress = now;
        }
    }

    // --- event-driven memory system -------------------------------------------

    /// Schedules a writeback at `time` retiring `token` of warp `warp`.
    pub(super) fn push_wb(&mut self, time: u64, warp: usize, token: SbToken) {
        self.pending_wb.push(time, WbSlot { warp, token });
    }

    /// Enqueues the DRAM transactions of one instruction (`(issue_cycle,
    /// block_addr, is_write)` triples, in port order) and returns the
    /// sequence number of the first.
    fn enqueue_dram(&mut self, requests: &[(u64, u32, bool)]) -> u64 {
        let first = self.mem_seq;
        for &(issue_cycle, addr, is_write) in requests {
            let seq = self.mem_seq;
            self.mem_seq += 1;
            if is_write {
                self.stats.dram.write_transfers += 1;
            } else {
                self.stats.dram.read_transfers += 1;
            }
            self.mem_outbox.push(MemRequest {
                issue_cycle,
                sm_id: self.sm_id,
                seq,
                addr,
                is_write,
            });
        }
        first
    }

    /// Grants every outbox transaction against the SM's private channel
    /// (the non-machine-driven mode): arbitration degenerates to
    /// issue-order service.
    pub(super) fn drain_local_grants(&mut self) {
        // Take/put-back (rather than consume) so the outbox keeps its
        // allocation across issue events.
        let mut outbox = std::mem::take(&mut self.mem_outbox);
        for req in outbox.drain(..) {
            let grant = self.dram.grant(&req);
            self.apply_grant(&grant);
        }
        self.mem_outbox = outbox;
    }

    /// Applies one arbitration grant: finds every pending scoreboard entry
    /// waiting on the transaction — its issuer plus any warps the MSHR
    /// file merged onto it — folds in the completion time and — once an
    /// entry's last outstanding transaction lands — converts it into a
    /// timed writeback. Write grants only account bandwidth; they never
    /// block a warp.
    pub(super) fn apply_grant(&mut self, grant: &MemGrant) {
        if grant.is_write {
            return;
        }
        self.mshr.on_grant(grant.seq, grant.ready_cycle);
        let mut matched = false;
        let mut i = 0;
        while i < self.pending_mem.len() {
            let op = &mut self.pending_mem[i];
            let own = op.first_seq <= grant.seq && grant.seq <= op.last_seq;
            if !own && !op.merged.contains(&grant.seq) {
                i += 1;
                continue;
            }
            matched = true;
            op.remaining -= 1;
            op.max_done = op.max_done.max(grant.ready_cycle);
            if op.remaining == 0 {
                let op = self.pending_mem.swap_remove(i);
                let wb = op.floor.max(op.max_done) + self.cfg.delivery_latency();
                self.push_wb(wb, op.warp, op.token);
                // swap_remove moved a fresh op into slot i: revisit it.
            } else {
                i += 1;
            }
        }
        if matched {
            self.stats.dram_queue_delay += grant.queue_delay;
            if grant.queue_delay > 0 {
                self.stats.dram_queued_loads += 1;
            }
            self.stats.dram_max_queue_delay =
                self.stats.dram_max_queue_delay.max(grant.queue_delay);
        }
    }

    /// Functional execution of `instr` for the threads in `mask`: runs the
    /// warp-level SoA execute path ([`execute_rows`]) in the SM's lane
    /// scratch and, for a memory instruction, classifies the access rows it
    /// left there and performs their reads/writes. Returns the taken mask
    /// (branches) and the shape (`Other` for anything but memory).
    pub(super) fn execute_functional(
        &mut self,
        w: usize,
        instr: &Instruction,
        mask: Mask,
    ) -> (Mask, AccessShape) {
        let warp = &mut self.warps[w];
        let active = mask & warp.populated;
        // `!3`: the memory system moves aligned words.
        let taken = execute_rows(
            instr,
            &mut warp.regs,
            &warp.info,
            &self.params,
            active,
            !3,
            &mut self.lanes,
        );
        if instr.op.unit() != UnitClass::Lsu {
            return (taken, AccessShape::Other);
        }
        let rows = self.lanes.mem_rows();
        let shape = AccessShape::of(rows.mask.bits(), rows.addr);
        self.apply_memory_effects(w, instr, shape);
        (taken, shape)
    }

    /// Memory side effects of one executed instruction (loads read,
    /// stores/atomics write), applied from its access rows in ascending
    /// thread order — a word's last writer is its highest thread.
    ///
    /// Loads and stores of one word, and of a dense run whose words one
    /// slice holds (a global page; all of shared memory), move without a
    /// walk over the lanes. Debug builds walk first all the same, and the
    /// shortcut then asserts that every word it writes is already there.
    fn apply_memory_effects(&mut self, w: usize, instr: &Instruction, shape: AccessShape) {
        let MemRows { mask, addr, data } = self.lanes.mem_rows();
        let Some((lo, hi)) = mask.span() else {
            return;
        };
        let global = instr.space == MemSpace::Global;
        let shared = &mut self.shared[self.warps[w].block_slot];
        // The threads whose words the shortcut moves as one slice: the
        // whole run, or one word's last writer.
        let sliced = match shape {
            AccessShape::OneWord => Some(hi..hi + 1),
            AccessShape::DenseRun if !global || addr[lo] >> 12 == addr[hi] >> 12 => {
                Some(lo..hi + 1)
            }
            _ => None,
        };
        let walk = sliced.is_none() || cfg!(debug_assertions);
        match instr.op {
            Op::Ld => {
                let d = instr.dst.expect("load has dst").index();
                let row = self.warps[w].regs.row_mut(d);
                if walk && global {
                    // Neighbouring lanes mostly share a page: one table
                    // walk per page transition instead of per lane.
                    let mut key = u32::MAX; // page id of `page`
                    let mut page: Option<&[u32]> = None;
                    for t in mask.iter() {
                        let a = addr[t];
                        if a >> 12 != key {
                            key = a >> 12;
                            page = self.mem.page(a);
                        }
                        row[t] = page.map_or(0, |p| p[Memory::page_word(a)]);
                    }
                } else if walk {
                    let words = shared.words();
                    for t in mask.iter() {
                        row[t] = words.get((addr[t] >> 2) as usize).copied().unwrap_or(0);
                    }
                }
                if let Some(run) = sliced {
                    // The resident words from the slice's address on, as
                    // far as they go; what is missing reads 0.
                    let from = addr[run.start];
                    let src = if global {
                        let page = self.mem.page(from);
                        page.map_or(&[][..], |p| &p[Memory::page_word(from)..])
                    } else {
                        shared.words().get((from >> 2) as usize..).unwrap_or(&[])
                    };
                    if shape == AccessShape::OneWord {
                        let v = src.first().copied().unwrap_or(0);
                        for t in mask.iter() {
                            debug_assert_eq!(row[t], v, "one-word load vs the lane walk");
                            row[t] = v;
                        }
                    } else {
                        let dst = &mut row[run];
                        let n = dst.len().min(src.len());
                        debug_assert!(
                            dst[..n] == src[..n] && dst[n..].iter().all(|&v| v == 0),
                            "dense-run load vs the lane walk"
                        );
                        dst[..n].copy_from_slice(&src[..n]);
                        dst[n..].fill(0);
                    }
                }
            }
            Op::St => {
                if walk && global {
                    // As for loads: one table walk, and one copy-on-write
                    // check, per page transition instead of per lane.
                    let mut key = u32::MAX; // page id of `page`
                    let mut page: &mut [u32] = &mut [];
                    for t in mask.iter() {
                        let a = addr[t];
                        if a >> 12 != key {
                            key = a >> 12;
                            page = self.mem.page_mut(a);
                        }
                        page[Memory::page_word(a)] = data[t];
                    }
                } else if walk {
                    for t in mask.iter() {
                        shared.write_u32(addr[t], data[t]);
                    }
                }
                if let Some(run) = sliced.clone() {
                    let (from, src) = (addr[run.start], &data[run]);
                    let dst = if global {
                        let at = Memory::page_word(from);
                        &mut self.mem.page_mut(from)[at..at + src.len()]
                    } else {
                        shared.run_mut(from, src.len())
                    };
                    debug_assert!(dst == src, "{shape:?} store vs the lane walk");
                    dst.copy_from_slice(src);
                }
                if let (true, Some(j)) = (global, &mut self.journal) {
                    // The journal keeps one value per word: the same map
                    // from every writer in order as from the last alone.
                    for t in sliced.unwrap_or(lo..hi + 1) {
                        if mask.get(t) {
                            j.record_store(addr[t], data[t]);
                        }
                    }
                }
            }
            Op::AtomAdd => {
                for t in mask.iter() {
                    if global {
                        let old = self.mem.read_u32(addr[t]);
                        self.mem.write_u32(addr[t], old.wrapping_add(data[t]));
                        if let Some(j) = &mut self.journal {
                            j.record_atomic_add(addr[t], data[t]);
                        }
                    } else {
                        let old = shared.read_u32(addr[t]);
                        shared.write_u32(addr[t], old.wrapping_add(data[t]));
                    }
                }
            }
            _ => {}
        }
    }

    /// Back-end timing for one pick; returns when its scoreboard entry
    /// retires — a known cycle, or a pending-memory marker for global loads
    /// whose transactions await a DRAM grant.
    pub(super) fn time_pick(
        &mut self,
        instr: &Instruction,
        shape: AccessShape,
        dispatch: Dispatch,
    ) -> WbTiming {
        let now = self.cycle;
        let width = self.cfg.warp_width;
        let delivery = self.cfg.delivery_latency();
        let lat = EXEC_LATENCY + delivery;
        match dispatch {
            Dispatch::None => WbTiming::At(now + 1),
            Dispatch::Ride(g) => {
                // Shares the primary's waves: same completion profile, no
                // extra port occupancy.
                let waves = self.groups.waves(g, width);
                WbTiming::At(now + waves - 1 + lat)
            }
            Dispatch::Group(g) => match instr.op.unit() {
                UnitClass::Mad | UnitClass::Sfu => {
                    let waves = self.groups.waves(g, width);
                    let last = self.groups.occupy(g, now, waves);
                    WbTiming::At(last + lat)
                }
                UnitClass::Lsu => {
                    let MemRows { mask, addr, .. } = self.lanes.mem_rows();
                    let lanes = mask.bits();
                    // Moved out for the borrow and handed back below.
                    let mut txs = std::mem::take(&mut self.tx_scratch);
                    let mut plan = std::mem::take(&mut self.plan_scratch);
                    let waves = self.groups.waves(g, width);
                    let (port, timing) = match (instr.space, instr.op) {
                        (MemSpace::Global, Op::AtomAdd) => {
                            atomic_transactions_rows(lanes, addr, &mut txs);
                            self.stats.lsu_transactions += txs.len() as u64;
                            if txs.len() > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            // Atomics are fire-and-forget write traffic.
                            plan_global_into(
                                &mut plan,
                                &mut self.l1,
                                &mut self.mshr,
                                now,
                                txs.txs(),
                                true,
                                self.mem_seq,
                            );
                            self.enqueue_dram(&plan.dram_requests);
                            (plan.port_cycles, WbTiming::At(now + 1 + delivery))
                        }
                        (MemSpace::Global, op) => {
                            coalesce_rows(lanes, addr, shape, &mut txs);
                            #[cfg(debug_assertions)]
                            {
                                coalesce_rows(lanes, addr, AccessShape::Other, &mut self.tx_check);
                                assert_eq!(
                                    txs.txs(),
                                    self.tx_check.txs(),
                                    "{shape:?} blocks vs the lane walk"
                                );
                            }
                            self.stats.lsu_transactions += txs.len() as u64;
                            if txs.len() > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            let is_store = op == Op::St;
                            plan_global_into(
                                &mut plan,
                                &mut self.l1,
                                &mut self.mshr,
                                now,
                                txs.txs(),
                                is_store,
                                self.mem_seq,
                            );
                            self.stats.mshr_merges += plan.mshr_merges;
                            self.stats.mshr_bypasses += plan.mshr_bypasses;
                            let first_seq = self.enqueue_dram(&plan.dram_requests);
                            if plan.resolves_inline(is_store) {
                                // Stores are write-through (the pipeline
                                // releases at the port drain) and hit-only
                                // loads complete at the L1 latency.
                                (plan.port_cycles, WbTiming::At(plan.inline_ready + delivery))
                            } else {
                                // The warp blocks on a pending-transaction
                                // scoreboard entry until every miss — its
                                // own and any it merged onto — is granted
                                // by the (private or machine-shared)
                                // channel.
                                (
                                    plan.port_cycles,
                                    WbTiming::Mem {
                                        first_seq,
                                        count: plan.dram_requests.len() as u32,
                                        // Moved out only on the (rare) MSHR-
                                        // merge path; the scratch plan keeps
                                        // its capacity otherwise.
                                        merged: std::mem::take(&mut plan.merged_waits),
                                        floor: plan.inline_ready,
                                    },
                                )
                            }
                        }
                        (MemSpace::Shared, Op::AtomAdd) => {
                            atomic_transactions_rows(lanes, addr, &mut txs);
                            self.stats.lsu_transactions += txs.len() as u64;
                            (
                                txs.len().max(1) as u64,
                                WbTiming::At(now + SHARED_LATENCY + delivery),
                            )
                        }
                        (MemSpace::Shared, _) => {
                            // Conflict-free by shape: a broadcast, or
                            // consecutive words on distinct banks.
                            let passes = if shape == AccessShape::Other {
                                shared_passes(mask, addr)
                            } else {
                                waves_touched(mask)
                            };
                            debug_assert_eq!(
                                passes,
                                shared_passes(mask, addr),
                                "{shape:?} passes vs the lane walk"
                            );
                            self.stats.lsu_transactions += passes;
                            if passes > 1 {
                                self.stats.lsu_replays += 1;
                            }
                            (
                                passes,
                                WbTiming::At(now + passes - 1 + SHARED_LATENCY + delivery),
                            )
                        }
                    };
                    self.groups.occupy(g, now, port.max(waves));
                    self.tx_scratch = txs;
                    self.plan_scratch = plan;
                    timing
                }
                UnitClass::Control => WbTiming::At(now + 1),
            },
        }
    }
}
