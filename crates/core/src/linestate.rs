//! Sparse per-line state with deterministic lazy cold defaults.
//!
//! The simulated memory holds ~2²⁷ lines; a run touches tens of thousands.
//! [`LineTable`] materialises state only for touched lines and synthesises
//! a deterministic *cold* default for first touches: the line was last
//! fully written `cold_age_s` seconds before the simulation epoch (plus a
//! per-line jitter so ages do not align), and its LWT flags are clear
//! (untracked).
//!
//! Storage is a flat open-addressed table with linear probing, keyed by
//! raw line id through a fast multiply-xor mix (`mix` — SipHash would
//! dominate the probe on this hot path, and HashDoS is not a threat model
//! for a simulator hashing its own deterministic trace). Key and state
//! live side by side in one 32-byte slot, so a probe touches exactly one
//! cache line — the std `HashMap` this replaced split control bytes from
//! entries and paid two DRAM misses per cold probe at paper-scale
//! footprints, which profiling showed was the single largest physics cost
//! (~117 ns/read at an mcf-sized touched set). [`LineTable::prefetch`]
//! exploits the same layout: it computes the home slot and touches that
//! one line, so the engine's issue-ahead hint warms exactly the memory
//! the dispatch probe will read. Earlier revisions carried a dense
//! direct-indexed tier sized to the workload footprint; it lost on both
//! ends (build-time zeroing, DRAM/TLB misses over a footprint-sized
//! array). The default materialised for a first touch is a pure function
//! of the line id and the touch time, so storage layout can never affect
//! simulation results, and peak memory tracks the number of *touched*
//! lines rather than the declared footprint.

use crate::flags::LwtFlags;

/// Cap on the capacity pre-reserved by [`LineTable::reserve`]:
/// enough for the largest touched set a paper-scale run produces without
/// letting a huge declared footprint balloon the empty table.
const RESERVE_CAP: u64 = 1 << 16;

/// Slot-array floor: small enough that an idle table stays cheap, large
/// enough that short runs never rehash.
const MIN_SLOTS: usize = 1 << 10;

/// Vacant-slot marker. A simulated line id of `u64::MAX` itself is legal
/// (tests probe the top of the address space); it is carried in a
/// dedicated side slot instead of the array.
const EMPTY_KEY: u64 = u64::MAX;

/// SplitMix-style multiply-xor finalizer: slot index for a line id, and
/// the base of the per-line jitter hash.
#[inline]
fn mix(line: u64) -> u64 {
    let mut x = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Mutable per-line tracking state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineState {
    /// Time of the last full-line write (seconds; negative = before the
    /// simulation started).
    pub last_full_write_s: f64,
    /// Time of the last scrub visit (start of the line's current LWT
    /// cycle).
    pub last_scrub_s: f64,
    /// LWT flags (unused by schemes without tracking, cheap to carry).
    pub flags: LwtFlags,
}

/// One table slot: key and state side by side so a probe is one load.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    state: LineState,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            key: EMPTY_KEY,
            state: LineState {
                last_full_write_s: 0.0,
                last_scrub_s: 0.0,
                flags: LwtFlags::new(2),
            },
        }
    }
}

/// Sparse line-state table.
#[derive(Debug, Clone)]
pub struct LineTable {
    slots: Box<[Slot]>,
    mask: usize,
    len: usize,
    /// Grow when `len` reaches this (3/4 of the slot count — probe
    /// chains stay short and, being linear, fall inside the lines the
    /// hardware stride prefetcher is already pulling, while the array
    /// stays half the size a 50% cap would need — the smaller footprint
    /// wins at cache-resident and paper-scale touched sets alike).
    grow_at: usize,
    /// State for a line id equal to [`EMPTY_KEY`].
    sentinel: Option<LineState>,
    k: u8,
    scrub_interval_s: f64,
    cold_age_s: f64,
    cold_at_scrub: bool,
    /// Lines below this boundary belong to the workload's *warm* region:
    /// they are in write steady state, so their pre-window last write is
    /// recent (within one scrub interval) rather than ancient.
    warm_boundary: u64,
}

impl LineTable {
    /// Creates a table for a scheme with `k` LWT sub-intervals, scrub
    /// interval `scrub_interval_s`, and cold lines last written
    /// `cold_age_s` seconds before time 0.
    ///
    /// # Panics
    ///
    /// Panics if the intervals are not positive.
    pub fn new(k: u8, scrub_interval_s: f64, cold_age_s: f64) -> Self {
        assert!(scrub_interval_s > 0.0, "scrub interval must be positive");
        assert!(cold_age_s >= 0.0, "cold age must be non-negative");
        Self {
            slots: vec![Slot::vacant(); MIN_SLOTS].into_boxed_slice(),
            mask: MIN_SLOTS - 1,
            len: 0,
            grow_at: MIN_SLOTS - MIN_SLOTS / 4,
            sentinel: None,
            k,
            scrub_interval_s,
            cold_age_s,
            cold_at_scrub: false,
            warm_boundary: 0,
        }
    }

    /// Declares `[0, boundary)` the warm region: first touches of those
    /// lines default to a synthetic pre-window write of age uniform in
    /// `[0, S/2)` (deterministic per line), with LWT flags consistent with
    /// that write — the steady state of data that is actively being
    /// written.
    pub fn set_warm_region(&mut self, boundary: u64) {
        self.warm_boundary = boundary;
    }

    /// Sizing hint: the workload touches on the order of `lines` distinct
    /// lines. Pre-sizes the slot array (capped at `RESERVE_CAP` entries)
    /// so steady-state insertion never rehashes mid-run. Storage is
    /// touched-proportional either way; the hint only smooths growth.
    pub fn reserve(&mut self, lines: u64) {
        let entries = lines.min(RESERVE_CAP) as usize;
        // Smallest power-of-two slot count whose 3/4 growth threshold
        // covers the hinted entry count.
        let mut want = MIN_SLOTS;
        while want - want / 4 < entries {
            want *= 2;
        }
        if want > self.slots.len() {
            self.resize(want);
        }
    }

    /// Overrides the cold-line age: cold lines default to a last full
    /// write `age_s·(1 + jitter)` before time 0, which also clears
    /// [`with_cold_writes_at_scrub`](Self::with_cold_writes_at_scrub).
    /// The warm region and the capacity reserve are kept.
    ///
    /// # Panics
    ///
    /// Panics if `age_s` is negative.
    pub fn set_cold_age(&mut self, age_s: f64) {
        assert!(age_s >= 0.0, "cold age must be non-negative");
        self.cold_age_s = age_s;
        self.cold_at_scrub = false;
    }

    /// Makes every line default to "fully written at its last scrub" —
    /// the steady state of a `W = 0` policy, which rewrites every line on
    /// every scrub visit. It overrides the warm region, so a `W = 0` table
    /// takes the same defaults whatever region it is given.
    pub fn with_cold_writes_at_scrub(mut self) -> Self {
        self.cold_at_scrub = true;
        self
    }

    /// Number of lines with materialised state.
    pub fn touched(&self) -> usize {
        self.len + usize::from(self.sentinel.is_some())
    }

    /// Scrub interval `S`.
    pub fn scrub_interval_s(&self) -> f64 {
        self.scrub_interval_s
    }

    /// Sub-interval length `S / k`.
    pub fn sub_len_s(&self) -> f64 {
        self.scrub_interval_s / self.k as f64
    }

    /// Deterministic per-line phase jitter in `[0, 1)` (hash of the id).
    fn jitter(line: u64) -> f64 {
        (mix(line) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The deterministic first-touch default for `line` at `now_s` — a
    /// pure function of the line id and touch time, independent of the
    /// storage layout.
    fn default_state(
        k: u8,
        scrub_interval_s: f64,
        cold_age_s: f64,
        cold_at_scrub: bool,
        warm_boundary: u64,
        line: u64,
        now_s: f64,
    ) -> LineState {
        let s = scrub_interval_s;
        let sub_len = s / k as f64;
        let j = Self::jitter(line);
        // Anchor the line's scrub phase before time 0 and roll it
        // forward to the most recent visit not after `now_s`.
        let phase = j * s;
        let cycles = ((now_s - phase) / s).floor().max(0.0);
        let last_scrub_s = phase - s + cycles * s;
        if cold_at_scrub {
            // A `W = 0` policy rewrites every line at every scrub visit,
            // so that is every line's steady state, warm region or not.
            return LineState {
                last_full_write_s: last_scrub_s,
                last_scrub_s,
                flags: LwtFlags::new(k),
            };
        }
        if line < warm_boundary {
            // Steady-state warm line: last written `j2·S/2` ago (data
            // that is actively written skews young); flags replay that
            // write (and the scrub, if one intervened).
            let j2 = Self::jitter(line ^ 0xABCD_EF01_2345_6789);
            let write_t = now_s - j2 * s * 0.5;
            let mut flags = LwtFlags::new(k);
            if write_t >= last_scrub_s {
                let sub = (((write_t - last_scrub_s) / sub_len) as u8).min(k - 1);
                flags.on_write(sub);
            } else {
                // Written in the previous cycle, then scrubbed.
                let prev_scrub = last_scrub_s - s;
                let sub = (((write_t - prev_scrub).max(0.0) / sub_len) as u8).min(k - 1);
                flags.on_write(sub);
                flags.on_scrub(false);
            }
            return LineState {
                last_full_write_s: write_t,
                last_scrub_s,
                flags,
            };
        }
        LineState {
            last_full_write_s: -(cold_age_s * (1.0 + j)),
            last_scrub_s,
            flags: LwtFlags::new(k),
        }
    }

    /// Doubles (or pre-sizes) the slot array and re-places every occupied
    /// slot. Values move verbatim; placement is invisible to callers.
    fn resize(&mut self, new_slots: usize) {
        debug_assert!(new_slots.is_power_of_two() && new_slots > self.slots.len());
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot::vacant(); new_slots].into_boxed_slice(),
        );
        self.mask = new_slots - 1;
        self.grow_at = new_slots - new_slots / 4;
        for slot in old.iter().filter(|s| s.key != EMPTY_KEY) {
            let mut i = (mix(slot.key) as usize) & self.mask;
            while self.slots[i].key != EMPTY_KEY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = *slot;
        }
    }

    /// Linear probe from `line`'s home slot: index of its slot, or of the
    /// first vacancy. Terminates because load never reaches 100%.
    #[inline]
    fn probe(&self, line: u64) -> usize {
        let mut i = (mix(line) as usize) & self.mask;
        loop {
            let key = self.slots[i].key;
            if key == line || key == EMPTY_KEY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The state of `line`, materialising the cold default on first touch.
    ///
    /// Cold default: last full write `cold_age_s·(1 + jitter)` before time
    /// 0; last scrub within the past interval (the scrub engine visits
    /// every line once per `S`); flags clear. One slot probe — one cache
    /// line — on the warm path.
    pub fn get_mut(&mut self, line: u64, now_s: f64) -> &mut LineState {
        let (k, s, cold, at_scrub, warm) = (
            self.k,
            self.scrub_interval_s,
            self.cold_age_s,
            self.cold_at_scrub,
            self.warm_boundary,
        );
        if line == EMPTY_KEY {
            return self.sentinel.get_or_insert_with(|| {
                Self::default_state(k, s, cold, at_scrub, warm, line, now_s)
            });
        }
        if self.len >= self.grow_at {
            self.resize(self.slots.len() * 2);
        }
        let i = self.probe(line);
        if self.slots[i].key != line {
            self.slots[i] = Slot {
                key: line,
                state: Self::default_state(k, s, cold, at_scrub, warm, line, now_s),
            };
            self.len += 1;
        }
        &mut self.slots[i].state
    }

    /// Pulls `line`'s home slot toward the cache ahead of a dispatch the
    /// engine has already committed to.
    ///
    /// Read-only: a miss does **not** materialise the cold default (that
    /// still happens in [`Self::get_mut`] at dispatch, with the dispatch
    /// timestamp), so prefetching can never change simulated state — only
    /// the host-side latency of the probe that follows. The touch is a
    /// single dependency-free load of the home slot's key, issued early
    /// enough that the out-of-order window overlaps the DRAM fill with
    /// the other cores' events between here and dispatch; `black_box`
    /// keeps the optimiser from dropping the otherwise-unused read.
    #[inline]
    pub fn prefetch(&self, line: u64) {
        let i = (mix(line) as usize) & self.mask;
        std::hint::black_box(self.slots[i].key);
    }

    /// The LWT sub-interval a time belongs to, relative to the line's last
    /// scrub. Returns `None` when the line's scrub is overdue (more than
    /// one full interval ago) — callers must treat that conservatively
    /// (M-sense).
    pub fn sub_interval(&self, st: &LineState, now_s: f64) -> Option<u8> {
        let dt = now_s - st.last_scrub_s;
        if dt < 0.0 || dt >= self.scrub_interval_s {
            return None;
        }
        Some(((dt / self.sub_len_s()) as u8).min(self.k - 1))
    }

    /// Age of the last full write at `now_s`.
    pub fn full_write_age(&self, st: &LineState, now_s: f64) -> f64 {
        (now_s - st.last_full_write_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_default_is_old_and_untracked() {
        let mut t = LineTable::new(4, 640.0, 1e6);
        let st = *t.get_mut(42, 100.0);
        assert!(st.last_full_write_s < 0.0);
        assert!(t.full_write_age(&st, 100.0) > 1e6);
        assert_eq!(st.flags.vector(), 0);
        // Last scrub within the past interval.
        assert!(st.last_scrub_s <= 100.0);
        assert!(100.0 - st.last_scrub_s < 640.0);
    }

    #[test]
    fn defaults_are_deterministic_but_line_dependent() {
        let mut a = LineTable::new(4, 640.0, 1e6);
        let mut b = LineTable::new(4, 640.0, 1e6);
        assert_eq!(*a.get_mut(7, 0.0), *b.get_mut(7, 0.0));
        let seven = a.get_mut(7, 0.0).last_full_write_s;
        let eight = a.get_mut(8, 0.0).last_full_write_s;
        assert_ne!(seven, eight);
    }

    #[test]
    fn sub_interval_resolves_and_detects_overdue() {
        let mut t = LineTable::new(4, 640.0, 1e6);
        let st = t.get_mut(1, 1000.0);
        st.last_scrub_s = 1000.0;
        let st = *t.get_mut(1, 1000.0);
        assert_eq!(t.sub_interval(&st, 1000.0), Some(0));
        assert_eq!(t.sub_interval(&st, 1100.0), Some(0));
        assert_eq!(t.sub_interval(&st, 1200.0), Some(1));
        assert_eq!(t.sub_interval(&st, 1639.0), Some(3));
        assert_eq!(t.sub_interval(&st, 1641.0), None, "overdue scrub");
        assert_eq!(t.sub_interval(&st, 999.0), None, "before scrub");
    }

    #[test]
    fn touched_counts_entries() {
        let mut t = LineTable::new(2, 8.0, 1e5);
        assert_eq!(t.touched(), 0);
        t.get_mut(1, 0.0);
        t.get_mut(2, 0.0);
        t.get_mut(1, 5.0);
        assert_eq!(t.touched(), 2);
    }

    #[test]
    fn writes_at_scrub_override_the_warm_region() {
        let mut t = LineTable::new(2, 640.0, 0.0).with_cold_writes_at_scrub();
        t.set_warm_region(50);
        for line in [0u64, 49, 50, 5000] {
            let st = *t.get_mut(line, 123.0);
            assert_eq!(st.last_full_write_s, st.last_scrub_s, "line {line}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = LineTable::new(4, 0.0, 1.0);
    }

    #[test]
    fn sizing_hint_never_changes_state() {
        // Identical defaults and mutations with and without the capacity
        // hint, including lines far past the hinted region and the
        // sentinel-adjacent top of the address space.
        let mut plain = LineTable::new(4, 640.0, 1e6);
        plain.set_warm_region(50);
        let mut hinted = LineTable::new(4, 640.0, 1e6);
        hinted.set_warm_region(50);
        hinted.reserve(100);
        for line in [0u64, 7, 49, 50, 99, 100, 5000, u64::MAX - 3, u64::MAX] {
            assert_eq!(
                *plain.get_mut(line, 123.0),
                *hinted.get_mut(line, 123.0),
                "first touch differs for line {line}"
            );
            plain.get_mut(line, 200.0).last_full_write_s = 150.0;
            hinted.get_mut(line, 200.0).last_full_write_s = 150.0;
            assert_eq!(*plain.get_mut(line, 250.0), *hinted.get_mut(line, 250.0));
        }
        assert_eq!(plain.touched(), hinted.touched());
    }

    #[test]
    fn memory_is_touched_proportional() {
        // Declaring a paper-scale footprint must not materialise per-line
        // storage: capacity stays bounded by the reserve cap, and entries
        // appear only as lines are touched.
        let mut t = LineTable::new(4, 640.0, 1e6);
        t.reserve(100_000_000);
        assert_eq!(t.touched(), 0);
        assert!(
            t.grow_at <= 2 * RESERVE_CAP as usize,
            "hint over-reserved: {} entries",
            t.grow_at
        );
        t.get_mut(0, 1.0);
        t.get_mut(99_999_999, 1.0);
        t.get_mut(0, 2.0);
        assert_eq!(t.touched(), 2);
        assert_eq!(t.get_mut(0, 5.0).last_full_write_s, {
            let mut fresh = LineTable::new(4, 640.0, 1e6);
            fresh.get_mut(0, 1.0).last_full_write_s
        });
    }

    #[test]
    fn survives_growth_across_many_inserts() {
        // Push far past MIN_SLOTS so several rehashes run, then verify
        // every entry kept its (mutated) state and collides with nothing.
        let mut t = LineTable::new(2, 640.0, 1e6);
        let n = 40_000u64;
        for line in 0..n {
            t.get_mut(line * 7 + 1, 1.0).last_full_write_s = line as f64;
        }
        assert_eq!(t.touched(), n as usize);
        for line in 0..n {
            assert_eq!(
                t.get_mut(line * 7 + 1, 2.0).last_full_write_s,
                line as f64,
                "entry lost or corrupted across rehash"
            );
        }
    }

    #[test]
    fn mix_spreads_sequential_lines() {
        // Sequential line ids (the common address pattern) must spread
        // across the hash range instead of clustering, in both the top
        // bits and the slot-index (low) bits.
        let mut top = std::collections::HashSet::new();
        let mut low = std::collections::HashSet::new();
        for line in 0u64..1000 {
            let h = mix(line);
            top.insert(h >> 48);
            low.insert(h & (MIN_SLOTS as u64 - 1));
        }
        assert!(top.len() > 900, "top bits collide: {}", top.len());
        assert!(low.len() > 600, "slot-index bits collide: {}", low.len());
    }
}
