//! The baseline PDOM reconvergence stack (paper §2).
//!
//! "Like Fermi, it handles branch divergence using a hardware stack. …
//! The context associated with future branches (PC and mask) are stored in a
//! hardware stack. Entries are popped from the stack as control flow
//! reconverges."
//!
//! The scheme used here is the classic three-entry discipline: on a
//! divergent branch the current entry is replaced by a *continuation* at the
//! reconvergence PC holding the union mask, plus one entry per divergent
//! path. A path entry pops when its PC reaches its reconvergence PC, melting
//! back into the continuation below it.

use warpweave_isa::Pc;

use crate::divergence::Transition;
use crate::mask::Mask;

/// One stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next PC for this context.
    pub pc: Pc,
    /// Threads owned by this context.
    pub mask: Mask,
    /// PC at which this context pops (`None`: runs to thread exit).
    pub reconv: Option<Pc>,
}

/// A per-warp PDOM reconvergence stack.
///
/// Only the top entry executes. [`PdomStack::apply`] feeds back the executed
/// instruction's [`Transition`].
#[derive(Debug, Clone)]
pub struct PdomStack {
    stack: Vec<StackEntry>,
    waiting_barrier: bool,
    max_depth: usize,
}

impl PdomStack {
    /// A fresh stack: all of `mask` at PC 0.
    pub fn new(mask: Mask) -> Self {
        let mut stack = PdomStack {
            stack: Vec::new(),
            waiting_barrier: false,
            max_depth: 1,
        };
        stack.reset(mask);
        stack
    }

    /// Restarts the stack as [`PdomStack::new`]`(mask)` would build it,
    /// keeping its allocation (a block relaunch on the same warp).
    pub fn reset(&mut self, mask: Mask) {
        self.stack.clear();
        self.stack.push(StackEntry {
            pc: Pc(0),
            mask,
            reconv: None,
        });
        self.waiting_barrier = false;
        self.max_depth = 1;
    }

    /// The executing context (top of stack), if any threads remain.
    pub fn current(&self) -> Option<(Pc, Mask)> {
        self.stack.last().map(|e| (e.pc, e.mask))
    }

    /// True when every thread has exited.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// True while the warp waits at a block barrier.
    pub fn at_barrier(&self) -> bool {
        self.waiting_barrier
    }

    /// Releases the warp from a barrier.
    pub fn release_barrier(&mut self) {
        self.waiting_barrier = false;
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// High-water mark of the stack depth (hardware provisioning metric,
    /// cf. table 3's 12 entries per warp).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Pops entries whose PC reached their reconvergence point (their
    /// threads are covered by a continuation below) and empty entries.
    fn settle(&mut self) {
        while let Some(top) = self.stack.last() {
            if top.mask.is_empty() || top.reconv == Some(top.pc) {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// Applies the outcome of the top context executing one instruction.
    ///
    /// `branch_reconv` is the executed branch's reconvergence annotation
    /// (`Instruction::reconv`); it is only read for `Transition::Split`.
    ///
    /// # Panics
    /// Panics (debug) if called on an empty stack.
    pub fn apply(&mut self, t: Transition, branch_reconv: Option<Pc>) {
        debug_assert!(!self.stack.is_empty(), "apply on exhausted stack");
        match t {
            Transition::Advance(pc) => {
                self.stack.last_mut().expect("non-empty").pc = pc;
            }
            Transition::Barrier(pc) => {
                self.stack.last_mut().expect("non-empty").pc = pc;
                self.waiting_barrier = true;
            }
            Transition::Exit => {
                let m = self.stack.last().expect("non-empty").mask;
                self.exit_mask(m);
            }
            Transition::Split { first, second } => {
                let top = self.stack.pop().expect("non-empty");
                let r = branch_reconv;
                // Continuation: the union mask waiting at the reconvergence
                // point. Skipped when it coincides with the popped entry's
                // own reconvergence (the entry below already covers it) —
                // this is what keeps divergent loops at O(nesting) depth.
                if let Some(rp) = r {
                    if top.reconv != Some(rp) {
                        self.stack.push(StackEntry {
                            pc: rp,
                            mask: top.mask,
                            reconv: top.reconv,
                        });
                    }
                }
                // Paths: taken below, fallthrough on top (fallthrough
                // executes first, as in fig. 2 where the `if` side runs
                // before the `else` side). A path starting at the
                // reconvergence point needs no entry.
                for (pc, mask) in [second, first] {
                    debug_assert!(!mask.is_empty());
                    if Some(pc) != r {
                        self.stack.push(StackEntry {
                            pc,
                            mask,
                            reconv: r,
                        });
                    }
                }
            }
        }
        self.max_depth = self.max_depth.max(self.stack.len());
        self.settle();
    }

    /// Removes exited threads from every entry (threads that `EXIT` inside a
    /// divergent path must also disappear from the continuations below).
    pub fn exit_mask(&mut self, m: Mask) {
        for e in &mut self.stack {
            e.mask = e.mask - m;
        }
        self.stack.retain(|e| !e.mask.is_empty());
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full4() -> Mask {
        Mask::full(4)
    }

    #[test]
    fn straight_line_advance() {
        let mut s = PdomStack::new(full4());
        s.apply(Transition::Advance(Pc(1)), None);
        assert_eq!(s.current(), Some((Pc(1), full4())));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn if_else_reconverges() {
        // Branch at 0 (reconv 4): taken {0,1}→3, fallthrough {2,3}→1.
        let mut s = PdomStack::new(full4());
        let taken = Mask::from_bits(0b0011);
        s.apply(
            Transition::from_branch(full4(), taken, Pc(3), Pc(1)),
            Some(Pc(4)),
        );
        // Fallthrough path on top.
        assert_eq!(s.current(), Some((Pc(1), Mask::from_bits(0b1100))));
        assert_eq!(s.depth(), 3);
        // Fallthrough runs 1 → 2 → 4 (reconv) → pops.
        s.apply(Transition::Advance(Pc(2)), None);
        s.apply(Transition::Advance(Pc(4)), None);
        assert_eq!(s.current(), Some((Pc(3), taken)));
        // Taken runs 3 → 4 → pops → continuation with the full mask.
        s.apply(Transition::Advance(Pc(4)), None);
        assert_eq!(s.current(), Some((Pc(4), full4())));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn divergent_loop_depth_stays_bounded() {
        // Loop body at 1..3, back-branch at 2 (reconv 3 = loop exit).
        let mut s = PdomStack::new(full4());
        s.apply(Transition::Advance(Pc(1)), None);
        let mut alive = full4();
        // Threads 0..3 leave the loop one per iteration.
        for i in 0..3 {
            s.apply(Transition::Advance(Pc(2)), None); // body
            let staying = alive.without(i);
            s.apply(
                Transition::from_branch(alive, staying, Pc(1), Pc(3)),
                Some(Pc(3)),
            );
            alive = staying;
            assert!(
                s.depth() <= 3,
                "depth {} grew unboundedly at iter {i}",
                s.depth()
            );
            assert_eq!(s.current(), Some((Pc(1), alive)));
        }
        // Last thread leaves uniformly.
        s.apply(Transition::Advance(Pc(2)), None);
        s.apply(
            Transition::from_branch(alive, Mask::EMPTY, Pc(1), Pc(3)),
            Some(Pc(3)),
        );
        // Everyone reconverged at the loop exit.
        assert_eq!(s.current(), Some((Pc(3), full4())));
    }

    #[test]
    fn exit_inside_divergent_path() {
        let mut s = PdomStack::new(full4());
        let taken = Mask::from_bits(0b0011);
        s.apply(
            Transition::from_branch(full4(), taken, Pc(5), Pc(1)),
            Some(Pc(8)),
        );
        // Fallthrough threads exit inside their path.
        s.apply(Transition::Exit, None);
        // Taken path becomes current; continuation no longer owns the dead
        // threads.
        assert_eq!(s.current(), Some((Pc(5), taken)));
        s.apply(Transition::Advance(Pc(8)), None);
        assert_eq!(s.current(), Some((Pc(8), taken)));
        s.apply(Transition::Exit, None);
        assert!(s.is_done());
    }

    #[test]
    fn barrier_flags() {
        let mut s = PdomStack::new(full4());
        s.apply(Transition::Barrier(Pc(1)), None);
        assert!(s.at_barrier());
        s.release_barrier();
        assert!(!s.at_barrier());
        assert_eq!(s.current(), Some((Pc(1), full4())));
    }

    #[test]
    fn reconverge_at_exit_branch() {
        // Divergent branch with no reconvergence point (both paths exit).
        let mut s = PdomStack::new(full4());
        let taken = Mask::from_bits(0b1000);
        s.apply(Transition::from_branch(full4(), taken, Pc(7), Pc(1)), None);
        assert_eq!(s.depth(), 2);
        s.apply(Transition::Exit, None); // fallthrough exits
        assert_eq!(s.current(), Some((Pc(7), taken)));
        s.apply(Transition::Exit, None);
        assert!(s.is_done());
    }

    #[test]
    fn max_depth_tracks_high_water() {
        let mut s = PdomStack::new(full4());
        s.apply(
            Transition::from_branch(full4(), Mask::from_bits(1), Pc(5), Pc(1)),
            Some(Pc(9)),
        );
        assert_eq!(s.max_depth(), 3);
    }
}
