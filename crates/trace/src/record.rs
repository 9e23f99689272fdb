//! Trace records and containers.

/// Kind of a memory operation reaching main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A demand read (LLC miss).
    Read,
    /// A writeback / store reaching memory.
    Write,
}

/// One memory operation in a per-core instruction-ordered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Instruction count (within the owning core's stream) at which the
    /// operation issues.
    pub icount: u64,
    /// Memory line address (64 B granularity).
    pub line: u64,
    /// Read or write.
    pub kind: OpKind,
}

/// A multi-core trace: one instruction-ordered stream per core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Workload name the trace was generated from.
    pub name: String,
    streams: Vec<Vec<MemOp>>,
}

impl Trace {
    /// Creates an empty trace for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(name: impl Into<String>, cores: usize) -> Self {
        assert!(cores > 0, "trace needs at least one core");
        Self {
            name: name.into(),
            streams: vec![Vec::new(); cores],
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// The instruction-ordered stream of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn stream(&self, core: usize) -> &[MemOp] {
        &self.streams[core]
    }

    /// Appends an op to a core's stream.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `icount` is not monotonically
    /// non-decreasing within the stream.
    pub fn push(&mut self, core: usize, op: MemOp) {
        let stream = &mut self.streams[core];
        if let Some(last) = stream.last() {
            assert!(
                op.icount >= last.icount,
                "core {core}: icount must be non-decreasing ({} < {})",
                op.icount,
                last.icount
            );
        }
        stream.push(op);
    }

    /// Total operations across all cores.
    pub fn total_ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Total reads across all cores.
    pub fn total_reads(&self) -> usize {
        self.streams
            .iter()
            .flatten()
            .filter(|o| o.kind == OpKind::Read)
            .count()
    }

    /// Total writes across all cores.
    pub fn total_writes(&self) -> usize {
        self.total_ops() - self.total_reads()
    }

    /// Number of distinct lines touched.
    pub fn footprint_lines(&self) -> usize {
        let mut lines: Vec<u64> = self.streams.iter().flatten().map(|o| o.line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counters() {
        let mut t = Trace::new("toy", 2);
        t.push(0, MemOp { icount: 10, line: 1, kind: OpKind::Read });
        t.push(0, MemOp { icount: 20, line: 2, kind: OpKind::Write });
        t.push(1, MemOp { icount: 5, line: 1, kind: OpKind::Read });
        assert_eq!(t.cores(), 2);
        assert_eq!(t.total_ops(), 3);
        assert_eq!(t.total_reads(), 2);
        assert_eq!(t.total_writes(), 1);
        assert_eq!(t.footprint_lines(), 2);
        assert_eq!(t.stream(0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_rejected() {
        let mut t = Trace::new("toy", 1);
        t.push(0, MemOp { icount: 10, line: 1, kind: OpKind::Read });
        t.push(0, MemOp { icount: 9, line: 2, kind: OpKind::Read });
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Trace::new("toy", 0);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = Trace::new("empty", 4);
        assert_eq!(t.total_ops(), 0);
        assert_eq!(t.footprint_lines(), 0);
    }
}
