//! A two-level bucketed event scheduler.
//!
//! The engine's event population is bimodal: almost everything (core
//! issues, bank kicks) lands within a few microseconds of *now*, while
//! scrub ticks recur hundreds of microseconds out. A single global
//! `BinaryHeap` pays `O(log n)` sift costs dominated by those far-future
//! entries on every hot-path push. [`EventQueue`] splits the timeline
//! instead:
//!
//! * a small **current-window heap** (`cur`) ordering only the events due
//!   in the next [`BUCKET_WIDTH_NS`] nanoseconds,
//! * a **timing wheel** of [`BUCKETS`] unsorted buckets, one per window,
//!   covering ≈1 ms ahead — insertion is an `O(1)` vector push,
//! * a sorted **overflow** heap for anything beyond the wheel horizon
//!   (scrub ticks at paper scale, idle-core wakeups), migrated inward as
//!   the horizon advances.
//!
//! Pop order is *exactly* the global `(at, seq)` order a single heap would
//! produce: `cur` always holds every pending event of the current window,
//! and every event elsewhere is strictly later. The engine's inline-kick
//! fast path needs only [`next_is_after`], which inspects `cur` alone for
//! the same reason.
//!
//! [`next_is_after`]: EventQueue::next_is_after

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width: each wheel bucket spans 4096 ns.
const BUCKET_BITS: u32 = 12;

/// Width of one wheel bucket (and of the current window) in nanoseconds.
pub(crate) const BUCKET_WIDTH_NS: u64 = 1 << BUCKET_BITS;

/// Number of wheel buckets: the wheel horizon is `256 × 4096 ns ≈ 1.05 ms`,
/// comfortably past every near-future event the engine schedules (bank
/// occupancy and core wakeups are tens of nanoseconds to microseconds out)
/// while scrub cadences (e.g. 305 µs/line at S = 640 s) still fit.
pub(crate) const BUCKETS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    at: u64,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<K> Eq for Entry<K> {}
impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The two-level scheduler. `K` is the event payload; ordering is by
/// `(time, insertion sequence)` only, so FIFO among same-time events is
/// preserved exactly as with the previous global heap.
///
/// Public so the sharded engine's cross-channel merge ([`ChannelMerge`])
/// and its property tests can drive a wheel directly; the engine itself
/// owns one wheel per channel.
#[derive(Debug)]
pub struct EventQueue<K> {
    /// Events due in `[bucket_start, bucket_start + BUCKET_WIDTH_NS)`.
    cur: BinaryHeap<Reverse<Entry<K>>>,
    /// Unsorted buckets for `[window end, horizon)`; slot = `(at / width) % BUCKETS`.
    wheel: Vec<Vec<Entry<K>>>,
    /// Sorted far-future events at or beyond the horizon.
    overflow: BinaryHeap<Reverse<Entry<K>>>,
    /// Start of the current window; always a multiple of the bucket width.
    bucket_start: u64,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Total pending events.
    len: usize,
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// Creates an empty queue with its window at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with `cap` entries pre-reserved across the
    /// tiers (the engine's steady-state arena): the current-window and
    /// overflow heaps each hold `cap`, every wheel bucket `cap / 256`.
    /// With `cap` at or above the run's event high-water mark, no tier
    /// ever reallocates — the steady-state loop allocates nothing.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            cur: BinaryHeap::with_capacity(cap),
            wheel: (0..BUCKETS).map(|_| Vec::with_capacity(cap / BUCKETS)).collect(),
            overflow: BinaryHeap::with_capacity(cap),
            bucket_start: 0,
            wheel_len: 0,
            len: 0,
            seq: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `kind` at time `at` (nanoseconds). Events pushed while one
    /// is being processed must not be earlier than the current window —
    /// the engine only ever schedules at or after *now*. Debug builds
    /// (and so the test suites) panic on an earlier push.
    pub fn push(&mut self, at: u64, kind: K) {
        debug_assert!(
            at >= self.bucket_start,
            "event at {at} ns pushed before the current window, which starts at {} ns",
            self.bucket_start
        );
        self.seq += 1;
        self.len += 1;
        let entry = Entry { at, seq: self.seq, kind };
        self.route(entry);
    }

    /// True when no pending event is due at or before `now` other than the
    /// ones `pop` would already have returned — i.e. the next pop is
    /// strictly later than `now`. This is the guard of the engine's
    /// inline-kick fast path. `now` must lie within the current window
    /// (which holds whenever the caller is processing an event popped at
    /// `now`), since only `cur` is inspected.
    pub fn next_is_after(&self, now: u64) -> bool {
        debug_assert!(
            self.bucket_start <= now && now < self.horizon(),
            "next_is_after queried outside the current window"
        );
        self.cur.peek().is_none_or(|Reverse(e)| e.at > now)
    }

    /// Removes and returns the earliest pending event by `(at, seq)`.
    pub fn pop(&mut self) -> Option<(u64, K)> {
        self.settle();
        self.cur.pop().map(|Reverse(e)| {
            self.len -= 1;
            (e.at, e.kind)
        })
    }

    /// Time of the earliest pending event, without removing it. Advances
    /// the window as needed (same lazy migration `pop` performs), so the
    /// result is exact across all three tiers, not just the current window.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.settle();
        self.cur.peek().map(|Reverse(e)| e.at)
    }

    /// Advances the window until the earliest pending event (if any) sits
    /// in `cur`. After this, `cur`'s top is the global `(at, seq)` minimum.
    fn settle(&mut self) {
        while self.cur.is_empty() && self.len != 0 {
            if self.wheel_len == 0 {
                // Only far-future events remain: jump the window straight
                // to the earliest one instead of stepping bucket by bucket.
                let min_at = self.overflow.peek().expect("len > 0 with empty tiers").0.at;
                self.bucket_start = min_at & !(BUCKET_WIDTH_NS - 1);
            } else {
                self.bucket_start += BUCKET_WIDTH_NS;
            }
            // The horizon moved: pull newly covered far-future events in.
            let horizon = self.horizon();
            while self.overflow.peek().is_some_and(|Reverse(e)| e.at < horizon) {
                let Reverse(e) = self.overflow.pop().expect("just peeked");
                self.route(e);
            }
            // Promote the new window's bucket into the sorted heap.
            let slot = (self.bucket_start >> BUCKET_BITS) as usize % BUCKETS;
            if !self.wheel[slot].is_empty() {
                self.wheel_len -= self.wheel[slot].len();
                for e in self.wheel[slot].drain(..) {
                    self.cur.push(Reverse(e));
                }
            }
        }
    }

    fn horizon(&self) -> u64 {
        self.bucket_start + BUCKET_WIDTH_NS * BUCKETS as u64
    }

    /// Total pending events.
    pub fn pending(&self) -> usize {
        self.len
    }

    fn route(&mut self, entry: Entry<K>) {
        if entry.at < self.bucket_start + BUCKET_WIDTH_NS {
            self.cur.push(Reverse(entry));
        } else if entry.at < self.horizon() {
            // Slots `(bucket_start/width + 1 .. + BUCKETS - 1) % BUCKETS`
            // cover this range, so the current window's own slot is never
            // written — no collision between live and future windows.
            let slot = (entry.at >> BUCKET_BITS) as usize % BUCKETS;
            self.wheel[slot].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
    }
}

/// The cross-channel merge rule of the sharded engine, as a standalone
/// structure: one [`EventQueue`] lane per channel, popped in exact
/// `(at, channel, seq)` order — earliest time first, ties broken by the
/// lowest channel index, and insertion order within a channel. The
/// sequential reference runner (`Simulator::run_sharded_reference`)
/// applies this identical rule over the per-channel engines' own wheels;
/// keeping the rule reified here lets the property suite pin it against a
/// `BinaryHeap` reference independently of the engine.
#[derive(Debug)]
pub struct ChannelMerge<K> {
    lanes: Vec<EventQueue<K>>,
}

impl<K> ChannelMerge<K> {
    /// Creates a merge over `channels` empty lanes.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels >= 1, "at least one channel");
        Self {
            lanes: (0..channels).map(|_| EventQueue::new()).collect(),
        }
    }

    /// Number of lanes.
    pub fn channels(&self) -> usize {
        self.lanes.len()
    }

    /// Schedules `kind` on `channel` at time `at`. Sequence numbers are
    /// per-channel, exactly as in the sharded engine where each channel
    /// pushes onto its own wheel.
    pub fn push(&mut self, channel: usize, at: u64, kind: K) {
        self.lanes[channel].push(at, kind);
    }

    /// Removes and returns the earliest pending event by
    /// `(at, channel, seq)`.
    pub fn pop(&mut self) -> Option<(u64, usize, K)> {
        let mut best: Option<(u64, usize)> = None;
        for (ch, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(at) = lane.peek_at() {
                // Strict `<` keeps the earliest channel on ties.
                if best.is_none_or(|(b_at, _)| at < b_at) {
                    best = Some((at, ch));
                }
            }
        }
        let (_, ch) = best?;
        let (at, kind) = self.lanes[ch].pop().expect("just peeked");
        Some((at, ch, kind))
    }

    /// Total pending events across all lanes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(EventQueue::pending).sum()
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
        q.push(5_000_000, "far"); // beyond the wheel horizon
        q.push(20_000, "wheel"); // in the wheel, outside the first window
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((50, "b")));
        assert_eq!(q.pop(), Some((50, "c")));
        assert_eq!(q.pop(), Some((20_000, "wheel")));
        assert_eq!(q.pop(), Some((5_000_000, "far")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn next_is_after_sees_same_window_events() {
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

    /// Events exactly at and just past the wheel horizon (256 × 4096 ns)
    /// sit on the wheel/overflow boundary; they must still pop in exact
    /// `(at, seq)` order, both against the initial horizon and against the
    /// moving horizon after the window has advanced.
    #[test]
    fn wheel_horizon_boundary_pops_in_exact_order() {
        let h = BUCKET_WIDTH_NS * BUCKETS as u64; // 1 048 576 ns
        let mut q = EventQueue::new();
        q.push(h, 10u32); // first event at the horizon: overflow tier
        q.push(h - 1, 11); // last wheel bucket
        q.push(h + 1, 12); // strictly past the horizon
        q.push(h, 13); // same time as 10: FIFO by insertion seq
        q.push(0, 14); // current window
        assert_eq!(q.pop(), Some((0, 14)));
        assert_eq!(q.pop(), Some((h - 1, 11)));
        assert_eq!(q.pop(), Some((h, 10)));
        assert_eq!(q.pop(), Some((h, 13)));
        assert_eq!(q.pop(), Some((h + 1, 12)));
        assert_eq!(q.pop(), None);
        // The window has advanced past h; the horizon the next pushes see
        // is `bucket_start + h`. Straddle it again.
        let start = h + 1 - ((h + 1) % BUCKET_WIDTH_NS); // current window base
        let h2 = start + h;
        q.push(h2 + 1, 20);
        q.push(h2, 21);
        q.push(h2 - 1, 22);
        q.push(h2, 23);
        assert_eq!(q.pop(), Some((h2 - 1, 22)));
        assert_eq!(q.pop(), Some((h2, 21)));
        assert_eq!(q.pop(), Some((h2, 23)));
        assert_eq!(q.pop(), Some((h2 + 1, 20)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pushed before the current window")]
    fn push_before_the_current_window_panics_in_debug_builds() {
        let mut q = EventQueue::new();
        q.push(3 * BUCKET_WIDTH_NS, 1u32);
        assert_eq!(q.pop(), Some((3 * BUCKET_WIDTH_NS, 1)));
        // The window now starts at 3 × width; a push into the first
        // window would be an event in the past.
        q.push(BUCKET_WIDTH_NS - 1, 2);
    }

    #[test]
    fn empty_queue_next_is_after_everything() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(q.next_is_after(0));
    }

    /// `peek_at` reports the exact time `pop` would return, across all
    /// three tiers, and never consumes the event.
    #[test]
    fn peek_at_is_non_consuming_and_exact() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push(20_000, "wheel"); // outside the first window
        q.push(5_000_000, "far"); // beyond the wheel horizon
        assert_eq!(q.peek_at(), Some(20_000));
        assert_eq!(q.peek_at(), Some(20_000), "peek is idempotent");
        q.push(20_000, "dup"); // same time, later seq
        assert_eq!(q.pop(), Some((20_000, "wheel")));
        assert_eq!(q.peek_at(), Some(20_000));
        assert_eq!(q.pop(), Some((20_000, "dup")));
        assert_eq!(q.peek_at(), Some(5_000_000));
        assert_eq!(q.pop(), Some((5_000_000, "far")));
        assert_eq!(q.peek_at(), None);
    }

    /// Ties across channels break on the lowest channel index; within a
    /// channel, insertion order wins — the `(at, channel, seq)` rule.
    #[test]
    fn channel_merge_orders_by_at_channel_seq() {
        let mut m = ChannelMerge::new(3);
        m.push(2, 100, "c2-a");
        m.push(0, 100, "c0-a");
        m.push(1, 100, "c1-a");
        m.push(0, 100, "c0-b");
        m.push(1, 50, "c1-early");
        m.push(2, 5_000_000, "c2-far");
        assert_eq!(m.pending(), 6);
        assert_eq!(m.pop(), Some((50, 1, "c1-early")));
        assert_eq!(m.pop(), Some((100, 0, "c0-a")));
        assert_eq!(m.pop(), Some((100, 0, "c0-b")));
        assert_eq!(m.pop(), Some((100, 1, "c1-a")));
        assert_eq!(m.pop(), Some((100, 2, "c2-a")));
        assert_eq!(m.pop(), Some((5_000_000, 2, "c2-far")));
        assert_eq!(m.pop(), None);
        assert_eq!(m.pending(), 0);
    }

    /// The scheduler must reproduce a plain `BinaryHeap`'s `(at, seq)` pop
    /// order exactly, under interleaved pushes and pops spanning all three
    /// tiers (current window, wheel, overflow) with same-time collisions.
    #[test]
    fn matches_reference_heap_under_random_interleaving() {
        let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            if rng.gen::<f64>() < 0.55 || reference.is_empty() {
                // Mix of near (same window), wheel-range, and far-future
                // offsets, with deliberate duplicates of `now`.
                let offset = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1..=5 => rng.gen_range(0..200),
                    6..=8 => rng.gen_range(0..BUCKET_WIDTH_NS * BUCKETS as u64),
                    _ => rng.gen_range(0..20_000_000),
                };
                seq += 1;
                q.push(now + offset, seq);
                reference.push(Reverse((now + offset, seq)));
            } else {
                let got = q.pop().expect("reference non-empty");
                let Reverse(want) = reference.pop().expect("non-empty");
                assert_eq!(got, want, "divergence at now={now}");
                now = got.0;
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
