//! Model test of [`CalendarQueue`] against the heap it replaces in the SM:
//! a [`MemEventQueue`] keyed `(ready_cycle, 0, push counter)`. Under any
//! interleaving of pushes and drains the two pop the same `(cycle,
//! payload)` sequence — payload order within a cycle included — and agree
//! on `next_ready_cycle` at every step, which is what keeps the SM's
//! writeback order and its idle fast-forward bit-exact.

use proptest::prelude::*;

use warpweave_mem::{CalendarQueue, MemEventQueue};

const HORIZON: u64 = CalendarQueue::<u32>::HORIZON;

/// The calendar beside its reference, driven in lock-step.
struct Pair {
    calendar: CalendarQueue<u32>,
    heap: MemEventQueue<u32>,
    /// Pushes so far: the payload, and the heap's tie-break.
    pushed: u32,
    now: u64,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            calendar: CalendarQueue::with_capacity(0),
            heap: MemEventQueue::new(),
            pushed: 0,
            now: 0,
        }
    }

    fn push(&mut self, cycle: u64) {
        self.calendar.push(cycle, self.pushed);
        self.heap
            .push(cycle, 0, u64::from(self.pushed), self.pushed);
        self.pushed += 1;
        self.check_heads();
    }

    /// Moves the clock to `now` and drains both queues, comparing every
    /// pop.
    fn drain(&mut self, now: u64) {
        self.now = now;
        loop {
            let expect = self.heap.pop_ready(now).map(|e| (e.ready_cycle, e.payload));
            assert_eq!(self.calendar.pop_ready(now), expect, "drain of {now}");
            self.check_heads();
            if expect.is_none() {
                break;
            }
        }
    }

    fn check_heads(&self) {
        assert_eq!(
            self.calendar.next_ready_cycle(),
            self.heap.next_ready_cycle()
        );
        assert_eq!(self.calendar.len(), self.heap.len());
        assert_eq!(self.calendar.is_empty(), self.heap.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pops_like_the_heap(
        ops in proptest::collection::vec((0u8..10, 0u64..1 << 32), 1..200),
    ) {
        let mut q = Pair::new();
        for (kind, r) in ops {
            let now = q.now;
            match kind {
                // Due in the past (or now): fires at the next drain.
                0 => q.push(now.saturating_sub(r % 40)),
                1 => q.push(now + 1),
                // Inside the horizon — mostly a handful of cycles out, as
                // the SM's writebacks are.
                2 | 3 => q.push(now + 1 + r % 24),
                4 => q.push(now + 1 + r % (HORIZON - 1)),
                // Around the ring's last bucket: the window after a drain
                // of `now` is `now + 1 ..= now + HORIZON`.
                5 => q.push(now + HORIZON - 1 + r % 3),
                // Far beyond it.
                6 => q.push(now + HORIZON + r % (4 * HORIZON)),
                // Drains. The SM's clock ticks by one, or fast-forwards to
                // at most the next event; the queue is also exact under a
                // jump past queued events.
                7 => q.drain(now + 1),
                8 => {
                    let next = q.heap.next_ready_cycle().unwrap_or(now + 1 + r % 3000);
                    let span = next.saturating_sub(now).max(1);
                    // To the event itself half the time, else short of it.
                    q.drain(now + if r & 1 == 0 { span } else { 1 + (r >> 1) % span });
                }
                _ => q.drain(now + 1 + r % 3000),
            }
        }
        // Drain to exhaustion so every pushed event is compared.
        while let Some(next) = q.heap.next_ready_cycle() {
            q.drain(next.max(q.now + 1));
        }
        prop_assert!(q.calendar.is_empty());
    }
}

/// The trap a calendar falls into when it judges its far events against
/// the window of the *last* drain, kept as a named regression: an event
/// pushed beyond the horizon must fire at its cycle when the clock reaches
/// it in one fast-forward jump — no drain in between, so the ring's window
/// still starts where the last drain left it, several horizons below.
#[test]
fn far_event_survives_a_clock_jump() {
    fn drain(q: &mut CalendarQueue<&'static str>, now: u64) -> Vec<(u64, &'static str)> {
        std::iter::from_fn(|| q.pop_ready(now)).collect()
    }
    let mut q = CalendarQueue::with_capacity(0);
    assert_eq!(drain(&mut q, 10), []);
    let far = 10 + 3 * HORIZON + 7;
    q.push(far, "dram-blocked"); // three horizons out
    q.push(12, "near");
    assert_eq!(drain(&mut q, 12), [(12, "near")]);
    // Idle until `far`: the SM sets its clock straight to it.
    assert_eq!(q.next_ready_cycle(), Some(far));
    assert_eq!(drain(&mut q, far), [(far, "dram-blocked")]);
    assert!(q.is_empty());

    // Reached cycle by cycle instead, a far event meets a ring event pushed
    // for the same cycle once the window has caught up: push order decides.
    let far = far + 2 * HORIZON;
    q.push(far, "first");
    assert_eq!(drain(&mut q, far - 5), []);
    q.push(far, "second");
    assert_eq!(q.next_ready_cycle(), Some(far));
    assert_eq!(drain(&mut q, far - 1), []);
    assert_eq!(drain(&mut q, far), [(far, "first"), (far, "second")]);
    assert!(q.is_empty());
}
