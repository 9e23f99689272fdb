//! Steady-state allocation audit for the engine hot path.
//!
//! The engine's arena work (a pre-reserved event heap, bounded bank
//! queues, warm line tables) promises that the steady-state engine loop
//! allocates *nothing*: after warm-up, every simulated op runs entirely
//! inside capacity that already exists. This suite pins that with a
//! counting global allocator:
//!
//! * **plain** — the same device is run twice over the same trace; the
//!   second run's line table and curve caches are warm, so its
//!   allocation count must be a small per-run setup constant (engine
//!   scaffolding: bank vectors, the event heap, the cursor), independent
//!   of the 100k+ ops simulated.
//! * **sharded** — `run_sharded` rebuilds devices per run, so the
//!   warm-device trick does not apply; instead the op count is doubled
//!   and the allocation count must stay flat (setup + per-run warm-up
//!   only, nothing per-op). Each run also drains its stream into
//!   per-channel op logs of 64 KiB blocks: one allocation per block,
//!   i.e. per ten thousand ops or more, a handful per run at this volume.
//! * **streaming** — a single-channel `Harness::run` from `Source::Stream`
//!   at four times the volume must not raise its peak live heap by more
//!   than a fixed slack: the stream holds bounded chunks, so memory is
//!   bounded by touched state. A run that materialised the trace first
//!   would hold 24 bytes per op, at least 7 MB more at the larger volume.
//!
//! The counting allocator lives only in this integration-test binary —
//! library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use readduo_bench::{Harness, Source};
use readduo_core::{HybridScheme, SchemeKind};
use readduo_memsim::{MemoryConfig, Simulator};
use readduo_pool::Pool;
use readduo_trace::{Trace, TraceCursor, TraceGenerator, Workload};

/// Counts allocation *events* (alloc + realloc) and tracks the live heap
/// bytes and their peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn toy_trace(seed: u64, instructions: u64) -> Trace {
    // toy = 30 mem ops / kinstr over 2 cores.
    TraceGenerator::new(seed).generate(&Workload::toy(), instructions, 2)
}

fn hybrid(seed: u64) -> HybridScheme {
    HybridScheme::paper(seed).with_reserve(Workload::toy().footprint_lines)
}

// One test function, sequential legs: the counter is process-global and
// the libtest harness runs separate `#[test]`s on concurrent threads.
#[test]
fn steady_state_engine_loop_does_not_allocate() {
    // ---- plain: warm device, second run is setup-only ----------------
    let trace = toy_trace(11, 1_700_000);
    let sim = Simulator::new(MemoryConfig::small_test());
    let mut dev = hybrid(11);
    let warm = sim.run(&trace, &mut dev);
    let ops = warm.reads + warm.writes;
    assert!(ops >= 100_000, "need a 100k-op steady-state window, got {ops}");

    let before = allocs();
    let rep = sim.run(&trace, &mut dev);
    let plain_delta = allocs() - before;
    eprintln!("zero_alloc: plain warm run = {plain_delta} allocations over {ops} ops");
    assert_eq!(rep.reads + rep.writes, ops, "replays must issue identically");
    // Per-run scaffolding (bank vector + deques, the event heap, trace
    // cursor, report) is a handful of allocations; per-op leakage would
    // show up as ops-many. The bound leaves headroom for
    // scaffolding while sitting three orders of magnitude below one
    // allocation per op.
    assert!(
        plain_delta < 2_000,
        "warm plain run allocated {plain_delta} times over {ops} ops"
    );

    // ---- sharded: doubling the ops must not move the count -----------
    let small = toy_trace(12, 850_000);
    let big = toy_trace(12, 1_700_000);
    let cfg = MemoryConfig::small_test().with_channels(2);
    let sharded = Simulator::new(cfg);
    let pool = Pool::new(2);
    let sharded_run = |t: &Trace| {
        let before = allocs();
        let rep = sharded.run_sharded(
            &pool,
            |_| TraceCursor::new(t),
            |ch| hybrid(12 ^ ch as u64),
        );
        (allocs() - before, rep.reads + rep.writes)
    };
    let (delta_small, ops_small) = sharded_run(&small);
    let (delta_big, ops_big) = sharded_run(&big);
    eprintln!(
        "zero_alloc: sharded {delta_small} allocations @ {ops_small} ops, \
         {delta_big} @ {ops_big}"
    );
    assert!(ops_big >= 100_000, "sharded window too small: {ops_big}");
    assert!(ops_big >= 2 * ops_small - ops_small / 10, "trace sizing drifted");
    // Fresh devices mean each sharded run pays its own warm-up (line
    // table fills, curve caches), so the count is not near-zero — but it
    // must be a function of the footprint, not of the op count.
    assert!(
        delta_big < delta_small + delta_small / 2,
        "sharded allocations scale with ops: {delta_small} @ {ops_small} ops \
         vs {delta_big} @ {ops_big} ops"
    );

    // ---- streaming: 4x the volume, the same peak live heap ------------
    let stream_run = |instructions_per_core: u64| {
        let harness = Harness {
            instructions_per_core,
            cores: 2,
            seed: 13,
            memory: MemoryConfig::paper(),
        };
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let run = harness
            .run(&Workload::toy(), SchemeKind::Hybrid, Source::Stream)
            .expect("a bare scheme always builds");
        (PEAK.load(Ordering::Relaxed) - start, run.report.reads + run.report.writes)
    };
    let (peak_small, ops_small) = stream_run(1_700_000);
    let (peak_big, ops_big) = stream_run(4 * 1_700_000);
    eprintln!(
        "zero_alloc: streamed peak live heap {peak_small} B @ {ops_small} ops, \
         {peak_big} B @ {ops_big} ops"
    );
    assert!(ops_big >= 4 * ops_small - ops_small / 10, "trace sizing drifted");
    // Touched state (line table, queues, report) saturates on toy's
    // footprint; the slack covers one more line-table doubling, and is
    // under a seventh of what a materialised trace adds.
    const SLACK_BYTES: u64 = 1 << 20;
    assert!(
        peak_big <= peak_small + SLACK_BYTES,
        "streamed run's peak heap grows with volume: {peak_small} B @ {ops_small} ops \
         vs {peak_big} B @ {ops_big} ops"
    );
}
