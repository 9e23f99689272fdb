//! Workload specifications — Table X of the paper.
//!
//! The scanned Table X is OCR-garbled, so the RPKI/WPKI values below are
//! representative post-LLC intensities for the named SPEC2006 benchmarks as
//! characterised across the architecture literature (the paper's baseline
//! config follows \[26\], 4-core with shared LLC). What the experiments need
//! is the *relative* character the paper leans on: `mcf` as the extreme
//! memory-intensive outlier, `lbm` write-heavy, `sphinx3` read-dominant over
//! a long-lived dataset (the in-memory-database-like pattern motivating
//! R-M-read conversion), and `bzip2`/`gcc` as low-intensity anchors.

/// Locality model of a workload's address stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Locality {
    /// Zipf exponent over line ranks (bigger = hotter hot set).
    pub zipf_s: f64,
    /// Fraction of accesses that stream sequentially through the warm
    /// region instead of following the Zipf reuse distribution.
    pub streaming_fraction: f64,
    /// Fraction of the footprint written during the trace (the *warm*
    /// region); the rest is cold data written long before the window.
    pub written_fraction: f64,
    /// Fraction of reads that target the cold region — data last written
    /// long before the trace (reads to it are un-tracked in ReadDuo-LWT
    /// and must M-sense). Small for most benchmarks; large for the
    /// query-over-static-dataset pattern (`sphinx3`).
    pub cold_read_fraction: f64,
}

/// One benchmark's memory character.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Benchmark name (SPEC2006 short name).
    pub name: &'static str,
    /// Memory reads per kilo-instruction reaching main memory.
    pub rpki: f64,
    /// Memory writes per kilo-instruction reaching main memory.
    pub wpki: f64,
    /// Distinct 64 B lines the workload touches.
    pub footprint_lines: u64,
    /// Address-stream locality.
    pub locality: Locality,
}

impl Workload {
    /// The 14 SPEC2006 benchmarks the paper simulates.
    ///
    /// Intensities are *memory-level* (post shared LLC) reads/writes per
    /// kilo-instruction. With blocking in-order cores the paper's
    /// normalised-overhead scale emerges when the memory-time share of
    /// execution is ~10–50% across the suite; the values below put the
    /// known memory hogs (`mcf`, `lbm`, `GemsFDTD`) at the top of that
    /// band and the compute-bound anchors (`gcc`, `astar`, `zeusmp`) at
    /// the bottom, preserving Table X's relative character.
    pub fn spec2006() -> Vec<Workload> {
        #[allow(clippy::too_many_arguments)]
        fn w(
            name: &'static str,
            rpki: f64,
            wpki: f64,
            footprint_lines: u64,
            zipf_s: f64,
            streaming_fraction: f64,
            written_fraction: f64,
            cold_read_fraction: f64,
        ) -> Workload {
            Workload {
                name,
                rpki,
                wpki,
                footprint_lines,
                locality: Locality {
                    zipf_s,
                    streaming_fraction,
                    written_fraction,
                    cold_read_fraction,
                },
            }
        }
        vec![
            w("astar", 0.8, 0.25, 120_000, 0.9, 0.10, 0.50, 0.02),
            w("bwaves", 2.8, 0.30, 900_000, 0.7, 0.55, 0.30, 0.04),
            w("bzip2", 1.0, 0.35, 180_000, 0.9, 0.25, 0.60, 0.02),
            w("gcc", 0.4, 0.15, 90_000, 1.0, 0.10, 0.55, 0.02),
            w("GemsFDTD", 3.2, 0.35, 1_000_000, 0.6, 0.60, 0.35, 0.03),
            w("lbm", 3.0, 2.20, 800_000, 0.5, 0.70, 0.85, 0.01),
            w("leslie3d", 2.2, 0.70, 700_000, 0.6, 0.50, 0.45, 0.03),
            w("libquantum", 2.6, 0.50, 500_000, 0.4, 0.80, 0.40, 0.02),
            w("mcf", 6.0, 0.90, 1_400_000, 0.8, 0.15, 0.35, 0.05),
            w("milc", 2.5, 0.80, 900_000, 0.6, 0.45, 0.45, 0.03),
            w("omnetpp", 2.1, 0.60, 600_000, 1.0, 0.10, 0.40, 0.03),
            w("soplex", 2.8, 0.70, 800_000, 0.8, 0.30, 0.40, 0.03),
            // sphinx3: read-dominant queries over a dataset written before
            // the window — the R-M-read conversion stress case (Figure 14).
            w("sphinx3", 1.4, 0.07, 400_000, 0.9, 0.20, 0.05, 0.45),
            w("zeusmp", 0.9, 0.35, 300_000, 0.7, 0.40, 0.50, 0.02),
        ]
    }

    /// Looks a benchmark up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::spec2006().into_iter().find(|w| w.name == name)
    }

    /// Total memory operations per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        self.rpki + self.wpki
    }

    /// Lines in the warm region `[0, warm_lines)`, the data written during
    /// the trace: the generator writes only below this boundary, and the
    /// schemes default lines below it to recently written. At least one
    /// line, and at most the footprint (itself at least 16 lines).
    pub fn warm_lines(&self) -> u64 {
        let footprint = self.footprint_lines.max(16);
        ((footprint as f64 * self.locality.written_fraction) as u64).clamp(1, footprint)
    }

    /// A tiny deterministic workload for unit tests and doc examples.
    pub fn toy() -> Workload {
        Workload {
            name: "toy",
            rpki: 20.0,
            wpki: 10.0,
            footprint_lines: 4_096,
            locality: Locality {
                zipf_s: 0.9,
                streaming_fraction: 0.3,
                written_fraction: 0.5,
                cold_read_fraction: 0.1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_benchmarks() {
        let all = Workload::spec2006();
        assert_eq!(all.len(), 14);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "names must be unique");
    }

    #[test]
    fn paper_character_preserved() {
        let mcf = Workload::by_name("mcf").unwrap();
        let lbm = Workload::by_name("lbm").unwrap();
        let sphinx = Workload::by_name("sphinx3").unwrap();
        let all = Workload::spec2006();
        // mcf is the most memory-intensive.
        assert!(all.iter().all(|w| w.rpki <= mcf.rpki));
        // lbm is the most write-intensive.
        assert!(all.iter().all(|w| w.wpki <= lbm.wpki));
        // sphinx3 reads mostly cold data.
        assert!(sphinx.locality.written_fraction < 0.1);
        assert!(sphinx.locality.cold_read_fraction > 0.3);
        assert!(sphinx.rpki / sphinx.wpki > 10.0);
        // Everyone else keeps untracked reads rare.
        for w in &all {
            if w.name != "sphinx3" && w.name != "mcf" {
                assert!(w.locality.cold_read_fraction <= 0.10, "{}", w.name);
            }
        }
    }

    #[test]
    fn parameters_are_sane() {
        for w in Workload::spec2006() {
            assert!(w.rpki > 0.0 && w.wpki > 0.0, "{}", w.name);
            assert!(w.footprint_lines > 0, "{}", w.name);
            let l = w.locality;
            assert!(l.zipf_s > 0.0, "{}", w.name);
            assert!((0.0..=1.0).contains(&l.streaming_fraction), "{}", w.name);
            assert!((0.0..=1.0).contains(&l.written_fraction), "{}", w.name);
            assert!((0.0..=1.0).contains(&l.cold_read_fraction), "{}", w.name);
            assert!((w.mpki() - (w.rpki + w.wpki)).abs() < 1e-12);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(Workload::by_name("mcf").is_some());
        assert!(Workload::by_name("doom").is_none());
    }
}
