//! The engine's event queue: one binary heap ordered by `(at, seq)`.
//!
//! Every pending event sits in a single `BinaryHeap` keyed on its due time
//! and insertion sequence, packed into one `u128` (`at` in the high half),
//! so pops come out in the global `(at, seq)` order: earliest first, FIFO
//! among events due at the same nanosecond.
//!
//! A heap rather than a timing wheel: an engine keeps only tens of events
//! pending (one issue per core, a kick and a scrub tick per bank), too few
//! for a wheel's `O(1)` bucket pushes to pay for its window migration.
//! Against the three-tier wheel it replaced, which popped in the same
//! order, the heap is less code with one tuning knob fewer; it was clearly
//! faster at depth 16, and at depth 4096 the two overlapped (DESIGN.md,
//! "Event queue").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    /// `at << 64 | seq`: ordering on it is ordering on `(at, seq)`.
    key: u128,
    kind: K,
}

impl<K> Entry<K> {
    fn at(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K> Eq for Entry<K> {}
impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue. `K` is the event payload; ordering is by
/// `(time, insertion sequence)` only.
///
/// Public so the repository benchmark's queue micro can drive a queue
/// directly; the engine itself owns one queue per channel.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Reverse<Entry<K>>>,
    seq: u64,
    /// Time of the last popped event. Nothing may be scheduled before it.
    now: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events. With
    /// `cap` at or above the run's event high-water mark the heap never
    /// reallocates, so the steady-state loop allocates nothing.
    pub fn with_capacity(cap: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(cap), seq: 0, now: 0 }
    }

    /// Schedules `kind` at time `at` (nanoseconds). The engine only ever
    /// schedules at or after *now*, the time of the event it is
    /// processing; debug builds (and so the test suites) panic on a push
    /// before the last popped event.
    pub fn push(&mut self, at: u64, kind: K) {
        debug_assert!(
            at >= self.now,
            "event at {at} ns pushed before the last popped event at {} ns",
            self.now
        );
        self.seq += 1;
        let key = u128::from(at) << 64 | u128::from(self.seq);
        self.heap.push(Reverse(Entry { key, kind }));
    }

    /// True when the next pop is strictly later than `now`: no pending
    /// event is due at or before it. This is the guard of the engine's
    /// inline-kick fast path.
    pub fn next_is_after(&self, now: u64) -> bool {
        self.heap.peek().is_none_or(|Reverse(e)| e.at() > now)
    }

    /// Removes and returns the earliest pending event by `(at, seq)`.
    pub fn pop(&mut self) -> Option<(u64, K)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at();
        Some((self.now, e.kind))
    }

    /// Total pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::rngs::StdRng;
    use readduo_rng::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(50, "b");
        q.push(10, "a");
        q.push(50, "c"); // same time as "b": FIFO by insertion
        q.push(5_000_000, "far");
        q.push(20_000, "mid");
        assert_eq!(q.pending(), 5);
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((50, "b")));
        assert_eq!(q.pop(), Some((50, "c")));
        assert_eq!(q.pop(), Some((20_000, "mid")));
        assert_eq!(q.pop(), Some((5_000_000, "far")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn next_is_after_sees_same_time_events() {
        let mut q = EventQueue::new();
        q.push(100, 1u32);
        q.push(100, 2u32);
        q.push(200, 3u32);
        let (now, _) = q.pop().expect("has events");
        assert_eq!(now, 100);
        assert!(!q.next_is_after(now), "a same-time event is still pending");
        let _ = q.pop();
        assert!(q.next_is_after(now), "only strictly later events remain");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pushed before the last popped event")]
    fn push_before_the_last_pop_panics_in_debug_builds() {
        let mut q = EventQueue::new();
        q.push(3 * 4096, 1u32);
        assert_eq!(q.pop(), Some((3 * 4096, 1)));
        // Now is 3 × 4096 ns; a push one nanosecond earlier would be an
        // event in the past.
        q.push(3 * 4096 - 1, 2);
    }

    #[test]
    fn empty_queue_next_is_after_everything() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(q.next_is_after(0));
    }

    /// Interleaved pushes and pops against a sorted-`Vec` reference, with
    /// same-time collisions and due times from `now` itself to far past
    /// any scrub period (beyond 2³² ns, so the packed key's halves both
    /// matter).
    #[test]
    fn matches_sorted_vec_reference_under_random_interleaving() {
        let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
        let mut q = EventQueue::new();
        // Ascending by (at, seq); the front is the next pop.
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            if rng.gen::<f64>() < 0.55 || reference.is_empty() {
                let offset = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=5 => rng.gen_range(0..200),
                    6..=8 => rng.gen_range(0..1 << 20),
                    _ => rng.gen_range(0..1 << 40),
                };
                seq += 1;
                let key = (now + offset, seq);
                let at = reference.partition_point(|&e| e < key);
                reference.insert(at, key);
                q.push(key.0, seq);
            } else {
                let want = reference.remove(0);
                assert_eq!(q.pop(), Some(want), "divergence at now={now}");
                now = want.0;
            }
            assert_eq!(q.pending(), reference.len());
            let next_after_now = reference.first().is_none_or(|&(at, _)| at > now);
            assert_eq!(q.next_is_after(now), next_after_now);
        }
        for want in reference {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
