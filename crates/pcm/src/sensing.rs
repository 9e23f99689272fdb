//! Sensing timings and energies for the three read modes.
//!
//! Latencies follow Section III-B / IV of the paper: R-read 150 ns, M-read
//! 450 ns (the optimised voltage-sensing circuit of \[16\], \[1\], \[14\] — a
//! naive implementation needs >1000 ns), R-M-read 600 ns (a failed R-read
//! followed by an M-read), MLC iterative program-and-verify write 1000 ns.

/// Timing (and per-bit energy) parameters of the readout circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseTiming {
    /// R-metric (current-mode) sensing latency in nanoseconds.
    pub r_read_ns: u64,
    /// M-metric (voltage-mode) sensing latency in nanoseconds.
    pub m_read_ns: u64,
    /// MLC iterative P&V write latency in nanoseconds.
    pub write_ns: u64,
}

impl SenseTiming {
    /// The paper's configuration: 150 / 450 / 1000 ns.
    pub fn paper() -> Self {
        Self {
            r_read_ns: 150,
            m_read_ns: 450,
            write_ns: 1000,
        }
    }

    /// Latency of an R-M-read: R-sensing that fails and falls back to
    /// M-sensing (150 + 450 = 600 ns).
    ///
    /// ```
    /// use readduo_pcm::SenseTiming;
    /// assert_eq!(SenseTiming::paper().rm_read_ns(), 600);
    /// ```
    pub fn rm_read_ns(&self) -> u64 {
        self.r_read_ns + self.m_read_ns
    }

    /// The naive (unoptimised) voltage-sensing latency the paper cites, for
    /// the ablation bench that motivates the optimised circuit.
    pub fn naive_m_read_ns() -> u64 {
        1000
    }
}

impl Default for SenseTiming {
    fn default() -> Self {
        Self::paper()
    }
}

/// One timing table for every device-level latency the schemes charge.
///
/// Before this existed the R+M escalation latency was re-derived as
/// `timing.rm_read_ns()` at each call site, and the wear subsystem would
/// have scattered its own constants the same way. `DeviceParams` is the
/// single source: escalation, write-verify retry and spare-line remap all
/// read from here, so a timing study edits one struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Base sensing/program latencies (Section III-B).
    pub timing: SenseTiming,
    /// Latency of an escalated R-M-read: the failed R-sense plus the
    /// M-sense retry (150 + 450 = 600 ns for the paper's circuits).
    pub escalation_read_ns: u64,
    /// Latency of the post-program verify sense (an R-read of the fresh,
    /// drift-free line).
    pub verify_read_ns: u64,
    /// Latency of one write-verify *retry*: re-pulse the failed cells
    /// (a full iterative P&V pass) plus the verify sense.
    pub retry_pulse_ns: u64,
    /// Latency of remapping a line to a spare: escalated read of the old
    /// line (stuck cells force the R+M path) plus the program of the
    /// spare; the remap-table update hides under the program.
    pub remap_ns: u64,
}

impl DeviceParams {
    /// The paper's timing table, derived from [`SenseTiming::paper`].
    pub fn paper() -> Self {
        Self::from_timing(SenseTiming::paper())
    }

    /// Derives the table from arbitrary base latencies.
    pub fn from_timing(timing: SenseTiming) -> Self {
        Self {
            timing,
            escalation_read_ns: timing.rm_read_ns(),
            verify_read_ns: timing.r_read_ns,
            retry_pulse_ns: timing.write_ns + timing.r_read_ns,
            remap_ns: timing.rm_read_ns() + timing.write_ns,
        }
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let t = SenseTiming::paper();
        assert_eq!(t.r_read_ns, 150);
        assert_eq!(t.m_read_ns, 450);
        assert_eq!(t.write_ns, 1000);
        assert_eq!(t.rm_read_ns(), 600);
        assert_eq!(t, SenseTiming::default());
    }

    #[test]
    fn m_is_slower_than_r_but_faster_than_naive() {
        let t = SenseTiming::paper();
        assert!(t.m_read_ns > t.r_read_ns);
        assert!(t.m_read_ns < SenseTiming::naive_m_read_ns());
    }

    #[test]
    fn device_params_pin_the_paper_escalation_latency() {
        let p = DeviceParams::paper();
        // 600 ns is load-bearing: every pre-wear golden CSV was produced
        // with it, so the hoist must not move it.
        assert_eq!(p.escalation_read_ns, 600);
        assert_eq!(p.verify_read_ns, 150);
        assert_eq!(p.retry_pulse_ns, 1150);
        assert_eq!(p.remap_ns, 1600);
        assert_eq!(p, DeviceParams::default());
        assert_eq!(p, DeviceParams::from_timing(SenseTiming::paper()));
    }
}
