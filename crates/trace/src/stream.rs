//! Pull-based streaming access to traces.
//!
//! A paper-scale replay (50–100M instructions/core) never needs the whole
//! trace at once: the engine consumes each core's stream strictly in order.
//! [`TraceStream`] therefore generates records lazily, [`DEFAULT_CHUNK`]
//! records per core per refill, so peak memory is bounded by
//! `cores × chunk` records regardless of instruction count. Buffered
//! records are stored compactly: a generated line address lies in
//! `[0, footprint.max(16))`, so it is kept as a `u32` and widened back on
//! [`peek`], and consumers observe bit-for-bit the same [`MemOp`]s a
//! materialised [`Trace`] would hold.
//!
//! [`peek`]: OpSource::peek

use crate::generator::{CoreGen, TraceGenerator};
use crate::record::{MemOp, OpKind, Trace};
use crate::workload::Workload;

/// Records buffered per core between refills.
pub const DEFAULT_CHUNK: usize = 8192;

/// An in-order, per-core supplier of memory operations.
///
/// The replay engine is written against this trait so a bounded-memory
/// generator ([`TraceStream`]) and a materialised trace ([`TraceCursor`])
/// are interchangeable. `peek` is idempotent: it returns the current head
/// of `core`'s stream without consuming it, and `advance` moves past it.
pub trait OpSource {
    /// Number of per-core streams.
    fn cores(&self) -> usize;
    /// The current head of `core`'s stream, or `None` when exhausted.
    fn peek(&mut self, core: usize) -> Option<MemOp>;
    /// Consumes the current head of `core`'s stream.
    fn advance(&mut self, core: usize);
    /// Line address of the op `k` positions past the current head of
    /// `core`'s stream, when cheaply known. Purely advisory: the engine
    /// uses it to warm per-line device state several scheduling rounds
    /// before dispatch, so a DRAM fill has real work to overlap with.
    /// Implementations may return `None` whenever the answer is not
    /// already at hand (the default) — a hint must never force
    /// generation, buffering or any other observable work.
    fn peek_line_ahead(&self, _core: usize, _k: usize) -> Option<u64> {
        None
    }
}

/// [`OpSource`] view over a materialised [`Trace`].
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: Vec<usize>,
}

impl<'a> TraceCursor<'a> {
    /// Opens a cursor at the start of every core's stream.
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            trace,
            pos: vec![0; trace.cores()],
        }
    }
}

impl OpSource for TraceCursor<'_> {
    fn cores(&self) -> usize {
        self.trace.cores()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.trace.stream(core).get(self.pos[core]).copied()
    }

    fn advance(&mut self, core: usize) {
        let len = self.trace.stream(core).len();
        if self.pos[core] < len {
            self.pos[core] += 1;
        }
    }

    fn peek_line_ahead(&self, core: usize, k: usize) -> Option<u64> {
        self.trace.stream(core).get(self.pos[core] + k).map(|op| op.line)
    }
}

/// A buffered record: 16 bytes instead of [`MemOp`]'s 24.
#[derive(Debug, Clone, Copy)]
struct CompactOp {
    icount: u64,
    /// The generated line address; it lies below the workload's footprint,
    /// which [`TraceStream::new`] checks fits a `u32`.
    line: u32,
    kind: OpKind,
}

#[derive(Debug)]
struct CoreState {
    generator: CoreGen,
    buf: Vec<CompactOp>,
    pos: usize,
    exhausted: bool,
}

/// Bounded-memory pull-based trace: the streaming counterpart of
/// [`TraceGenerator::generate`].
///
/// Each core holds at most one chunk of compact records; when a chunk is
/// drained the core's resumable `CoreGen` refills it in place. Because
/// the generator state is identical to the one `generate` drains, the
/// sequence of [`MemOp`]s observed through [`OpSource`] is bit-for-bit the
/// materialised trace — chunk size only changes buffering, never records.
#[derive(Debug)]
pub struct TraceStream {
    name: String,
    cores: Vec<CoreState>,
    chunk: usize,
}

impl TraceStream {
    /// Opens a stream over the trace `generator` would materialise for
    /// `workload` ([`DEFAULT_CHUNK`] records per core per refill).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, if `instructions_per_core == 0`, or if the
    /// workload's line range `[0, footprint_lines.max(16))` does not fit a
    /// `u32`.
    pub fn new(
        generator: TraceGenerator,
        workload: &Workload,
        instructions_per_core: u64,
        cores: usize,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        let lines = workload.footprint_lines.max(16);
        assert!(lines <= u64::from(u32::MAX), "line range {lines} exceeds u32 line ids");
        let states = (0..cores)
            .map(|core| CoreState {
                generator: CoreGen::new(&generator, workload, instructions_per_core, core),
                buf: Vec::new(),
                pos: 0,
                exhausted: false,
            })
            .collect();
        Self {
            name: workload.name.to_string(),
            cores: states,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the per-core chunk size (used by the equivalence tests to
    /// prove buffering never changes records).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// Refills `core`'s buffer if it is drained and the generator has more.
    fn ensure_buffered(&mut self, core: usize) {
        let chunk = self.chunk;
        let state = &mut self.cores[core];
        if state.pos < state.buf.len() || state.exhausted {
            return;
        }
        state.buf.clear();
        state.pos = 0;
        while state.buf.len() < chunk {
            match state.generator.next_op() {
                Some(op) => state.buf.push(CompactOp {
                    icount: op.icount,
                    // Lossless: `new` checked the line range fits a u32.
                    line: op.line as u32,
                    kind: op.kind,
                }),
                None => {
                    state.exhausted = true;
                    break;
                }
            }
        }
    }

    /// Drains the stream into a materialised [`Trace`].
    pub fn collect_trace(mut self) -> Trace {
        let mut trace = Trace::new(self.name.clone(), self.cores.len());
        for core in 0..self.cores.len() {
            while let Some(op) = self.peek(core) {
                trace.push(core, op);
                self.advance(core);
            }
        }
        trace
    }
}

impl OpSource for TraceStream {
    fn cores(&self) -> usize {
        self.cores.len()
    }

    fn peek(&mut self, core: usize) -> Option<MemOp> {
        self.ensure_buffered(core);
        let state = &self.cores[core];
        state.buf.get(state.pos).map(|op| MemOp {
            icount: op.icount,
            line: u64::from(op.line),
            kind: op.kind,
        })
    }

    fn advance(&mut self, core: usize) {
        self.ensure_buffered(core);
        let state = &mut self.cores[core];
        if state.pos < state.buf.len() {
            state.pos += 1;
        }
    }

    fn peek_line_ahead(&self, core: usize, k: usize) -> Option<u64> {
        // Within the current chunk only: a hint may not trigger a refill.
        let state = &self.cores[core];
        state.buf.get(state.pos + k).map(|op| u64::from(op.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_materialised_trace() {
        let w = Workload::toy();
        let generator = TraceGenerator::new(7);
        let trace = generator.generate(&w, 50_000, 2);
        let mut stream = generator.stream(&w, 50_000, 2).with_chunk(64);
        for core in 0..trace.cores() {
            for &want in trace.stream(core) {
                assert_eq!(stream.peek(core), Some(want), "peek is idempotent");
                assert_eq!(stream.peek(core), Some(want));
                stream.advance(core);
            }
            assert_eq!(stream.peek(core), None, "core {core} should be drained");
        }
    }

    #[test]
    fn chunk_size_never_changes_records() {
        let w = Workload::toy();
        let generator = TraceGenerator::new(9);
        let baseline = generator.generate(&w, 30_000, 2);
        for chunk in [1, 7, 4096] {
            let got = generator.stream(&w, 30_000, 2).with_chunk(chunk).collect_trace();
            assert_eq!(got, baseline, "chunk size {chunk} changed the trace");
        }
    }

    #[test]
    fn interleaved_core_consumption_is_independent() {
        let w = Workload::toy();
        let generator = TraceGenerator::new(3);
        let trace = generator.generate(&w, 20_000, 2);
        let mut stream = generator.stream(&w, 20_000, 2).with_chunk(5);
        // Alternate cores op by op; each stream must be unaffected by the
        // other's progress.
        let mut idx = [0usize; 2];
        loop {
            let mut progressed = false;
            for (core, consumed) in idx.iter_mut().enumerate() {
                if let Some(op) = stream.peek(core) {
                    assert_eq!(op, trace.stream(core)[*consumed]);
                    stream.advance(core);
                    *consumed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(idx[0], trace.stream(0).len());
        assert_eq!(idx[1], trace.stream(1).len());
    }

    #[test]
    #[should_panic(expected = "exceeds u32 line ids")]
    fn line_range_beyond_u32_rejected() {
        let w = Workload { footprint_lines: u64::from(u32::MAX) + 1, ..Workload::toy() };
        let _ = TraceGenerator::new(1).stream(&w, 1_000, 1);
    }

    #[test]
    fn cursor_matches_trace() {
        let w = Workload::toy();
        let trace = TraceGenerator::new(5).generate(&w, 20_000, 2);
        let mut cursor = TraceCursor::new(&trace);
        assert_eq!(cursor.cores(), 2);
        for core in 0..2 {
            for &want in trace.stream(core) {
                assert_eq!(cursor.peek(core), Some(want));
                cursor.advance(core);
            }
            assert_eq!(cursor.peek(core), None);
            cursor.advance(core); // advancing past the end is a no-op
            assert_eq!(cursor.peek(core), None);
        }
    }

    #[test]
    #[should_panic(expected = "instruction budget")]
    fn zero_instruction_stream_rejected() {
        let _ = TraceGenerator::new(1).stream(&Workload::toy(), 0, 1);
    }
}
