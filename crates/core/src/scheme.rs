//! Scheme factory: one enum naming every configuration the evaluation
//! runs, per-scheme storage costs, and [`DeviceSpec`] — the one way a
//! device is built, with fault injection, wear and the DRAM tier composed
//! on top of the scheme.

use crate::area::{LineStorage, TLC_LINE_CELLS};
use crate::schemes::{HybridScheme, LwtScheme, MMetricScheme, Policy, Scheme, ScrubbingScheme};
use crate::wear::WearConfig;
use readduo_dram::{DramConfig, TieredDevice};
use readduo_memsim::{DeviceModel, FixedLatencyDevice};
use std::fmt;

/// Derives one channel's device seed from the run seed: channel 0 keeps
/// the seed unchanged (so a single-channel topology reproduces the
/// pre-topology device construction bit-for-bit) and later channels are
/// decorrelated by a golden-ratio multiply of the channel index.
pub fn channel_seed(seed: u64, channel: usize) -> u64 {
    seed ^ (channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Every scheme configuration in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Drift-free MLC (the normalisation baseline).
    Ideal,
    /// Efficient scrubbing \[2\], R-sensing, `(BCH=8, S=8, W=1)`.
    Scrubbing,
    /// The reliability-sound `(BCH=8, S=8, W=0)` variant.
    ScrubbingW0,
    /// M-sensing only, `(BCH=8, S=640, W=1)`.
    MMetric,
    /// ReadDuo-Hybrid, `(BCH=8, S=640, W=0)`.
    Hybrid,
    /// ReadDuo-LWT-k.
    Lwt {
        /// Sub-intervals per scrub interval.
        k: u8,
    },
    /// LWT-k with R-M-read conversion disabled (Figure 14 ablation).
    LwtNoConversion {
        /// Sub-intervals per scrub interval.
        k: u8,
    },
    /// ReadDuo-Select-(k:s).
    Select {
        /// Sub-intervals per scrub interval.
        k: u8,
        /// Full-write window in sub-intervals.
        s: u8,
    },
    /// Tri-Level-Cell baseline \[26\].
    Tlc,
}

impl SchemeKind {
    /// The six headline schemes of Figures 9/10/15.
    pub fn headline() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Ideal,
            SchemeKind::Scrubbing,
            SchemeKind::MMetric,
            SchemeKind::Hybrid,
            SchemeKind::Lwt { k: 4 },
            SchemeKind::Select { k: 4, s: 2 },
        ]
    }

    /// Display label used in figures.
    pub fn label(&self) -> String {
        match self {
            SchemeKind::Ideal => "Ideal".into(),
            SchemeKind::Scrubbing => "Scrubbing".into(),
            SchemeKind::ScrubbingW0 => "Scrubbing-W0".into(),
            SchemeKind::MMetric => "M-metric".into(),
            SchemeKind::Hybrid => "Hybrid".into(),
            SchemeKind::Lwt { k } => format!("LWT-{k}"),
            SchemeKind::LwtNoConversion { k } => format!("LWT-{k}-noconv"),
            SchemeKind::Select { k, s } => format!("Select-{k}:{s}"),
            SchemeKind::Tlc => "TLC".into(),
        }
    }

    /// Whether the scheme has an injected read path: Ideal and TLC are
    /// drift-free by construction, and M-metric's direct M-reads never
    /// exercise the escalation chain the injector models.
    fn injectable(&self) -> bool {
        !matches!(
            self,
            SchemeKind::Ideal | SchemeKind::MMetric | SchemeKind::Tlc
        )
    }

    /// Builds the bare device model with no warm region, seeding its RNG
    /// streams from `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn DeviceModel> {
        self.build_for_channel(seed, 0, 0, 0)
    }

    /// The bare device of one channel: [`DeviceSpec::build`] of this
    /// scheme alone.
    pub fn build_for_channel(
        &self,
        seed: u64,
        channel: usize,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Box<dyn DeviceModel> {
        DeviceSpec::from(*self)
            .build(seed, channel, 1, warm_boundary, footprint_lines)
            .expect("a bare scheme always builds")
    }

    /// The single-channel device with fault injection and wear:
    /// [`DeviceSpec::build`], or `None` for a scheme without an injected
    /// read path.
    pub fn build_worn(
        &self,
        seed: u64,
        fault_seed: u64,
        wear: WearConfig,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Option<Box<dyn DeviceModel>> {
        DeviceSpec::from(*self)
            .with_fault(fault_seed)
            .with_wear(wear)
            .build(seed, 0, 1, warm_boundary, footprint_lines)
            .ok()
    }

    /// Per-line storage cost for the area factor of EDAP.
    pub fn storage(&self) -> LineStorage {
        match *self {
            SchemeKind::Ideal | SchemeKind::MMetric | SchemeKind::Hybrid => LineStorage::mlc_bch8(),
            SchemeKind::Scrubbing | SchemeKind::ScrubbingW0 => LineStorage::scrubbing(),
            SchemeKind::Lwt { k }
            | SchemeKind::LwtNoConversion { k }
            | SchemeKind::Select { k, .. } => LineStorage::lwt(k),
            SchemeKind::Tlc => LineStorage::tlc(),
        }
    }
}

impl fmt::Display for SchemeKind {
    /// The [`label`](SchemeKind::label), padded and aligned as the format
    /// spec asks (`{:<12}`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.label())
    }
}

/// A device configuration: one scheme plus the opt-in subsystems stacked
/// on it. Each layer is absent unless set, and an absent layer leaves the
/// device bit-for-bit what it would be without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// The readout scheme and its scrub policy.
    pub scheme: SchemeKind,
    /// Monte-Carlo fault injection on demand reads, seeding the fault
    /// stream independently of the scheme's analytic sampler.
    pub fault: Option<u64>,
    /// The endurance model (requires `fault`: stuck bits only matter
    /// through the injected decode path).
    pub wear: Option<WearConfig>,
    /// A hybrid DRAM–PCM migration tier in front of the device; zero
    /// lines means no tier.
    pub dram: Option<DramConfig>,
}

/// Why a [`DeviceSpec`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// Fault injection on a scheme without an injected read path
    /// (Ideal, M-metric, TLC).
    NotInjectable(SchemeKind),
    /// Wear without fault injection.
    WearWithoutFault(SchemeKind),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NotInjectable(s) => write!(f, "{s} has no fault-injected read path"),
            SpecError::WearWithoutFault(s) => {
                write!(f, "{s}: the wear model needs fault injection")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SchemeKind> for DeviceSpec {
    fn from(scheme: SchemeKind) -> Self {
        Self {
            scheme,
            fault: None,
            wear: None,
            dram: None,
        }
    }
}

impl DeviceSpec {
    /// The same spec with fault injection seeded by `seed`.
    pub fn with_fault(self, seed: u64) -> Self {
        Self {
            fault: Some(seed),
            ..self
        }
    }

    /// The same spec with the endurance model `wear`.
    pub fn with_wear(self, wear: WearConfig) -> Self {
        Self {
            wear: Some(wear),
            ..self
        }
    }

    /// The same spec behind the DRAM tier `dram`.
    pub fn with_dram(self, dram: DramConfig) -> Self {
        Self {
            dram: Some(dram),
            ..self
        }
    }

    /// Checks that the layers compose, without building anything.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.fault.is_some() && !self.scheme.injectable() {
            return Err(SpecError::NotInjectable(self.scheme));
        }
        if self.wear.is_some() && self.fault.is_none() {
            return Err(SpecError::WearWithoutFault(self.scheme));
        }
        Ok(())
    }

    /// Builds the device of channel `channel` of a `channels`-way
    /// topology: the tier over wear over fault injection over the scheme.
    ///
    /// Every per-channel seed derives here, through [`channel_seed`]: the
    /// scheme's, the fault stream's, the wear table's and the tier's
    /// set-index hash. The tier's capacity is the channel's
    /// [`DramConfig::sliced`] share. Channel 0 keeps every seed, so a
    /// single-channel topology is the unsharded device bit-for-bit.
    ///
    /// Lines `[0, warm_boundary)` are the workload's actively written
    /// region (they default to steady-state recent writes instead of
    /// ancient ones; a `W = 0` scheme's line table overrides it, see
    /// [`LineTable::with_cold_writes_at_scrub`](crate::LineTable::with_cold_writes_at_scrub))
    /// and `footprint_lines` pre-sizes the line table; both only shape
    /// first-touch defaults and capacity, never which lines are
    /// representable.
    pub fn build(
        &self,
        seed: u64,
        channel: usize,
        channels: usize,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Result<Box<dyn DeviceModel>, SpecError> {
        self.validate()?;
        let seed = channel_seed(seed, channel);
        let layers = Layers {
            fault: self.fault.map(|s| channel_seed(s, channel)),
            wear: self.wear.map(|w| WearConfig {
                seed: channel_seed(w.seed, channel),
                ..w
            }),
            warm_boundary,
            footprint_lines,
        };
        let device: Box<dyn DeviceModel> = match self.scheme {
            SchemeKind::Ideal => Box::new(FixedLatencyDevice::ideal()),
            // TLC is drift-free like Ideal; it only packs a line into more
            // (tri-level) cells.
            SchemeKind::Tlc => {
                Box::new(FixedLatencyDevice::ideal().with_cells_per_write(TLC_LINE_CELLS))
            }
            SchemeKind::Scrubbing => layers.on(ScrubbingScheme::paper(seed)),
            SchemeKind::ScrubbingW0 => layers.on(ScrubbingScheme::paper_w0(seed)),
            SchemeKind::MMetric => layers.on(MMetricScheme::paper(seed)),
            SchemeKind::Hybrid => layers.on(HybridScheme::paper(seed)),
            SchemeKind::Lwt { k } => layers.on(LwtScheme::paper(seed, k)),
            SchemeKind::LwtNoConversion { k } => layers.on(LwtScheme::without_conversion(seed, k)),
            SchemeKind::Select { k, s } => layers.on(LwtScheme::select(seed, k, s)),
        };
        Ok(match self.dram {
            Some(dram) if dram.lines > 0 => {
                let cfg = DramConfig {
                    seed: channel_seed(dram.seed, channel),
                    ..dram.sliced(channels)
                };
                Box::new(TieredDevice::new(device, cfg))
            }
            _ => device,
        })
    }
}

/// One channel's fault and wear layers and line-table hints, as
/// [`DeviceSpec::build`] applies them to a scheme.
#[derive(Clone, Copy)]
struct Layers {
    fault: Option<u64>,
    wear: Option<WearConfig>,
    warm_boundary: u64,
    footprint_lines: u64,
}

impl Layers {
    fn on<P: Policy + 'static>(self, mut scheme: Scheme<P>) -> Box<dyn DeviceModel> {
        if let Some(seed) = self.fault {
            scheme = scheme.with_fault_injection(seed);
        }
        if let Some(cfg) = self.wear {
            scheme = scheme.with_wear(cfg);
        }
        Box::new(
            scheme
                .with_warm_region(self.warm_boundary)
                .with_reserve(self.footprint_lines),
        )
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.scheme)?;
        let layers = [
            (self.fault.is_some(), "fault"),
            (self.wear.is_some(), "wear"),
            (self.dram.is_some_and(|d| d.lines > 0), "dram"),
        ];
        for (on, layer) in layers {
            if on {
                write!(f, "+{layer}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SchemeKind; 9] = [
        SchemeKind::Ideal,
        SchemeKind::Scrubbing,
        SchemeKind::ScrubbingW0,
        SchemeKind::MMetric,
        SchemeKind::Hybrid,
        SchemeKind::Lwt { k: 4 },
        SchemeKind::LwtNoConversion { k: 2 },
        SchemeKind::Select { k: 4, s: 1 },
        SchemeKind::Tlc,
    ];

    #[test]
    fn headline_set_matches_figures() {
        let h = SchemeKind::headline();
        assert_eq!(h.len(), 6);
        assert_eq!(h[0], SchemeKind::Ideal);
        assert_eq!(h[5].label(), "Select-4:2");
    }

    #[test]
    fn all_kinds_build() {
        for k in ALL {
            let mut dev = k.build(1);
            // Every device must answer a read without panicking.
            let r = dev.on_read(0, 10.0);
            assert!(r.latency_ns >= 150, "{k}");
            let _ = k.storage();
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn faulty_specs_cover_exactly_the_injectable_schemes() {
        for k in ALL {
            let spec = DeviceSpec::from(k).with_fault(2);
            match spec.build(1, 0, 1, 0, 0) {
                Ok(mut dev) => {
                    assert!(k.injectable(), "{k}");
                    assert!(dev.on_read(0, 10.0).latency_ns >= 150, "{k}");
                }
                Err(e) => {
                    assert!(!k.injectable(), "{k}");
                    assert_eq!(e, SpecError::NotInjectable(k));
                }
            }
            let worn = DeviceSpec::from(k).with_wear(WearConfig::new(3));
            assert_eq!(worn.validate(), Err(SpecError::WearWithoutFault(k)));
        }
    }

    #[test]
    fn spec_labels_name_their_layers() {
        let lwt = DeviceSpec::from(SchemeKind::Lwt { k: 4 });
        assert_eq!(lwt.to_string(), "LWT-4");
        let full = lwt
            .with_fault(1)
            .with_wear(WearConfig::new(1))
            .with_dram(DramConfig::new(1, 64));
        assert_eq!(full.to_string(), "LWT-4+fault+wear+dram");
        assert_eq!(lwt.with_dram(DramConfig::new(1, 0)).to_string(), "LWT-4");
    }

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:<12}|", SchemeKind::Ideal), "Ideal       |");
        assert_eq!(
            format!("{:>12}|", SchemeKind::Lwt { k: 4 }),
            "       LWT-4|"
        );
        assert_eq!(
            format!("{}", SchemeKind::Select { k: 4, s: 2 }),
            "Select-4:2"
        );
    }

    #[test]
    fn tlc_is_drift_free_and_denser_writes() {
        let mut tlc = SchemeKind::Tlc.build(1);
        let r = tlc.on_read(1, 1e9);
        assert_eq!(r.drift_errors, 0);
        assert_eq!(r.latency_ns, 150);
        let w = tlc.on_write(1, 0.0);
        assert_eq!(w.cells_written, TLC_LINE_CELLS);
        assert_eq!(tlc.scrub_interval_s(), None);
    }

    #[test]
    fn storage_maps_to_expected_variants() {
        assert_eq!(SchemeKind::Tlc.storage().tlc_cells, 432);
        assert_eq!(SchemeKind::Scrubbing.storage().mlc_cells, 304);
        assert_eq!(SchemeKind::Lwt { k: 4 }.storage().slc_bits, 6);
    }
}
