//! Deterministic queues of timed memory events: a binary min-heap and the
//! calendar queue built over it.
//!
//! Every queue in the event-driven memory system — in-flight DRAM
//! completions inside [`crate::SharedDramChannel`], the SM pipeline's
//! pending-writeback queue — keys its events on the total order
//! `(ready_cycle, sm_id, seq)`. Because the key is total (the `seq`
//! component is unique per `sm_id`), pop order is a pure function of the
//! *set* of queued events, never of insertion order, host threading or
//! hash-map iteration — the property the machine's bit-identical-across-
//! thread-counts contract is built on.
//!
//! [`MemEventQueue`] is the general heap. [`CalendarQueue`] is the
//! single-producer special case an SM's writeback queue is: one `sm_id`,
//! `seq` = push order, and almost every event due a handful of cycles
//! after it is pushed — so push and pop are O(1) and allocate nothing,
//! with the heap kept only for the events outside the ring's horizon.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One timed event: a payload that becomes relevant at `ready_cycle`.
///
/// Ordering is `(ready_cycle, sm_id, seq)` ascending; the payload does not
/// participate in the order.
#[derive(Debug, Clone, Copy)]
pub struct MemEvent<T> {
    /// Cycle at which the event fires.
    pub ready_cycle: u64,
    /// Originating SM (tie-break between SMs at the same cycle).
    pub sm_id: u32,
    /// Per-SM monotonic sequence number (final, unique tie-break).
    pub seq: u64,
    /// The event's payload (ignored by the ordering).
    pub payload: T,
}

impl<T> MemEvent<T> {
    fn key(&self) -> (u64, u32, u64) {
        (self.ready_cycle, self.sm_id, self.seq)
    }
}

impl<T> PartialEq for MemEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for MemEvent<T> {}

impl<T> PartialOrd for MemEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for MemEvent<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic binary min-heap of [`MemEvent`]s.
///
/// # Examples
/// ```
/// use warpweave_mem::MemEventQueue;
///
/// let mut q = MemEventQueue::new();
/// q.push(340, 1, 7, "late");
/// q.push(330, 0, 3, "early");
/// assert_eq!(q.next_ready_cycle(), Some(330));
/// assert_eq!(q.pop_ready(330).map(|e| e.payload), Some("early"));
/// assert_eq!(q.pop_ready(330), None); // 340 not ready yet
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemEventQueue<T> {
    heap: BinaryHeap<Reverse<MemEvent<T>>>,
}

impl<T> MemEventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        MemEventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Enqueues an event firing at `ready_cycle`.
    pub fn push(&mut self, ready_cycle: u64, sm_id: u32, seq: u64, payload: T) {
        self.heap.push(Reverse(MemEvent {
            ready_cycle,
            sm_id,
            seq,
            payload,
        }));
    }

    /// The earliest queued fire cycle, if any.
    pub fn next_ready_cycle(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.ready_cycle)
    }

    /// Pops the minimum event if it fires at or before `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<MemEvent<T>> {
        if self.next_ready_cycle()? <= now {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            None
        }
    }

    /// Pops the minimum event unconditionally.
    pub fn pop(&mut self) -> Option<MemEvent<T>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Index of "no node" in a [`CalendarQueue`]'s slab links.
const NIL: u32 = u32::MAX;

/// Buckets in a [`CalendarQueue`]'s ring ([`CalendarQueue::HORIZON`]).
const RING: u64 = 1024;
/// Words of its occupancy bitmap. The summary word holds one bit per
/// bitmap word, and `ring_next` shifts by `word + 1`.
const WORDS: usize = (RING / 64) as usize;
const _: () = assert!(WORDS < 64 && RING.is_power_of_two());

/// One queued payload of a [`CalendarQueue`] bucket, linked FIFO.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    payload: T,
    next: u32,
}

/// A calendar queue: the events of one producer, popped in exactly the
/// `(ready_cycle, push order)` order a [`MemEventQueue`] keyed
/// `(ready_cycle, 0, push counter)` pops them in, at O(1) per push and pop
/// and with no allocation once the slab has reached the producer's
/// in-flight bound ([`CalendarQueue::with_capacity`]).
///
/// A power-of-two ring of per-cycle FIFO buckets covers the cycles
/// `base..base + HORIZON`, where `base` is one past the last cycle drained
/// to exhaustion; a two-level occupancy bitmap finds the first non-empty
/// bucket in three word operations. Events outside that window — due at or
/// before the last drained cycle, or [`CalendarQueue::HORIZON`] or more
/// cycles ahead (DRAM-blocked writebacks) — go to a [`MemEventQueue`]
/// overflow that is merged back in at pop time, never migrated: on a tie
/// the overflow event pops first, because it was pushed first (a ring
/// event for cycle `c` can only be pushed once `base` has come within the
/// horizon of `c`, i.e. after every far push for `c`; and no ring event
/// outlives its cycle's drain to meet a past-due push). The window moves
/// only in [`CalendarQueue::pop_ready`], to one past the cycle being
/// drained — the clock may jump by any amount between drains.
///
/// # Examples
/// ```
/// use warpweave_mem::CalendarQueue;
///
/// let mut q = CalendarQueue::with_capacity(4);
/// q.push(5000, "far"); // beyond the horizon: overflow
/// q.push(12, "b");
/// q.push(10, "a");
/// q.push(12, "c");
/// assert_eq!(q.next_ready_cycle(), Some(10));
/// assert_eq!(q.pop_ready(12), Some((10, "a")));
/// assert_eq!(q.pop_ready(12), Some((12, "b"))); // push order within a cycle
/// assert_eq!(q.pop_ready(12), Some((12, "c")));
/// assert_eq!(q.pop_ready(12), None);
/// assert_eq!(q.next_ready_cycle(), Some(5000));
/// assert_eq!(q.pop_ready(5000), Some((5000, "far"))); // a 4988-cycle jump
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Every ring event's cycle lies in `base..base + HORIZON`.
    base: u64,
    /// `(head, tail)` slab indices of each bucket's FIFO, valid under the
    /// bucket's `occupied` bit.
    buckets: Vec<(u32, u32)>,
    /// Bit `i % 64` of word `i / 64` set ⇔ bucket `i` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set ⇔ `occupied[w] != 0`.
    summary: u64,
    /// Node slab; freed nodes are chained through `next` from `free`.
    nodes: Vec<Node<T>>,
    free: u32,
    ring_len: usize,
    /// Events outside the ring's window, keyed `(cycle, 0, seq)`.
    overflow: MemEventQueue<T>,
    /// Push counter: the overflow's tie-break.
    seq: u64,
}

impl<T: Copy> CalendarQueue<T> {
    /// Cycles the ring covers; an event due this many cycles or more past
    /// the drained clock goes to the overflow heap. Sized for the SM's
    /// writebacks: execute, shared-memory and L1 latencies are tens of
    /// cycles and an unqueued DRAM fill is 330, so only fills that waited
    /// several hundred cycles for a saturated channel overflow.
    pub const HORIZON: u64 = RING;

    /// An empty queue whose slab holds `events` in-flight events before it
    /// has to grow.
    pub fn with_capacity(events: usize) -> Self {
        CalendarQueue {
            base: 0,
            buckets: vec![(NIL, NIL); Self::HORIZON as usize],
            occupied: [0; WORDS],
            summary: 0,
            nodes: Vec::with_capacity(events),
            free: NIL,
            ring_len: 0,
            overflow: MemEventQueue::new(),
            seq: 0,
        }
    }

    /// Enqueues an event firing at `ready_cycle`. One due at or before the
    /// cycle last drained fires at the next drain.
    pub fn push(&mut self, ready_cycle: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        // Wraps to a huge offset for a cycle before `base`.
        if ready_cycle.wrapping_sub(self.base) >= Self::HORIZON {
            self.overflow.push(ready_cycle, 0, seq, payload);
            return;
        }
        let node = Node { payload, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
            n
        };
        let b = (ready_cycle % Self::HORIZON) as usize;
        if self.occupied[b / 64] >> (b % 64) & 1 == 0 {
            self.occupied[b / 64] |= 1 << (b % 64);
            self.summary |= 1 << (b / 64);
            self.buckets[b] = (n, n);
        } else {
            let tail = std::mem::replace(&mut self.buckets[b].1, n);
            self.nodes[tail as usize].next = n;
        }
        self.ring_len += 1;
    }

    /// The cycle of the first non-empty ring bucket at or after `base`.
    fn ring_next(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.base % Self::HORIZON) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let rest = self.occupied[w0] & (!0 << b0);
        let bucket = if rest != 0 {
            w0 * 64 + rest.trailing_zeros() as usize
        } else {
            // The first non-empty word after `w0`, else — wrapping — the
            // first of all, which may be `w0` itself for its bits below
            // `b0`.
            let after = self.summary & (!0 << (w0 + 1));
            let w = if after != 0 { after } else { self.summary }.trailing_zeros() as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        let ahead = bucket.wrapping_sub(start) as u64 % Self::HORIZON;
        Some(self.base + ahead)
    }

    /// The earliest queued fire cycle, if any — exact whatever the clock
    /// has done since the last drain.
    pub fn next_ready_cycle(&self) -> Option<u64> {
        match (self.ring_next(), self.overflow.next_ready_cycle()) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Pops the next event, in `(ready_cycle, push order)` order, if it
    /// fires at or before `now`. A `None` ends the drain of `now`: the
    /// ring's window moves to start just past it.
    pub fn pop_ready(&mut self, now: u64) -> Option<(u64, T)> {
        let ring = self.ring_next().filter(|&c| c <= now);
        let over = self.overflow.next_ready_cycle().filter(|&c| c <= now);
        match (ring, over) {
            // A tie goes to the overflow (see the type's docs).
            (r, Some(o)) if r.is_none_or(|r| o <= r) => {
                let e = self.overflow.pop().expect("peeked");
                Some((e.ready_cycle, e.payload))
            }
            (Some(c), _) => {
                let b = (c % Self::HORIZON) as usize;
                let (head, tail) = self.buckets[b];
                let Node { payload, next } = self.nodes[head as usize];
                if head == tail {
                    self.occupied[b / 64] &= !(1 << (b % 64));
                    if self.occupied[b / 64] == 0 {
                        self.summary &= !(1 << (b / 64));
                    }
                } else {
                    self.buckets[b].0 = next;
                }
                self.nodes[head as usize].next = self.free;
                self.free = head;
                self.ring_len -= 1;
                Some((c, payload))
            }
            _ => {
                self.base = self.base.max(now + 1);
                None
            }
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order_regardless_of_insertion() {
        let keys = [(500u64, 2u32, 0u64), (330, 0, 4), (330, 0, 1), (330, 1, 0)];
        // Two insertion orders, same pop order.
        let mut a = MemEventQueue::new();
        for &(c, s, q) in &keys {
            a.push(c, s, q, ());
        }
        let mut b = MemEventQueue::new();
        for &(c, s, q) in keys.iter().rev() {
            b.push(c, s, q, ());
        }
        let drain = |mut q: MemEventQueue<()>| {
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push((e.ready_cycle, e.sm_id, e.seq));
            }
            out
        };
        let order = drain(a);
        assert_eq!(order, drain(b));
        assert_eq!(
            order,
            vec![(330, 0, 1), (330, 0, 4), (330, 1, 0), (500, 2, 0)]
        );
    }

    #[test]
    fn pop_ready_respects_now() {
        let mut q = MemEventQueue::new();
        q.push(100, 0, 0, 'a');
        q.push(200, 0, 1, 'b');
        assert!(q.pop_ready(99).is_none());
        assert_eq!(q.pop_ready(100).map(|e| e.payload), Some('a'));
        assert_eq!(q.next_ready_cycle(), Some(200));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
