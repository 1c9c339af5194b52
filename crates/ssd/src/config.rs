//! Simulator configuration.

use crate::retry::RetryConfig;
use ida_core::refresh::RefreshMode;
use ida_flash::geometry::Geometry;
use ida_flash::timing::FlashTiming;
use ida_ftl::FtlConfig;

/// A structurally invalid [`SsdConfig`], rejected by
/// [`SsdConfigBuilder::build`] before a simulator is ever constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A geometry dimension is zero — the array would hold no pages.
    ZeroGeometry {
        /// The zero dimension.
        field: &'static str,
    },
    /// `bits_per_cell` outside the modeled 1–4 (SLC–QLC) range.
    BadBitsPerCell {
        /// The rejected value.
        bits: u32,
    },
    /// A fraction-valued knob outside its domain (over-provisioning must
    /// be in `[0, 1)`, the IDA adjust error rate in `[0, 1]`).
    BadFraction {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A zero refresh period: every block would be due at once, forever.
    ZeroRefreshPeriod,
    /// GC watermarks inverted or zero — collection could never settle.
    BadWatermarks {
        /// The low (trigger) watermark.
        low: u32,
        /// The high (stop) watermark.
        high: u32,
    },
    /// More pages than the FTL's `u32` page tables address
    /// ([`ida_ftl::map::MAX_PAGES`]).
    TooManyPages {
        /// The geometry's page count.
        pages: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroGeometry { field } => {
                write!(f, "geometry dimension {field} must be positive")
            }
            ConfigError::BadBitsPerCell { bits } => {
                write!(f, "bits_per_cell must be 1-4 (SLC-QLC), got {bits}")
            }
            ConfigError::BadFraction { field, value } => {
                write!(f, "{field} out of range: {value}")
            }
            ConfigError::ZeroRefreshPeriod => write!(f, "refresh_period must be positive"),
            ConfigError::BadWatermarks { low, high } => write!(
                f,
                "GC watermarks must satisfy 0 < low <= high, got low={low} high={high}"
            ),
            ConfigError::TooManyPages { pages } => write!(
                f,
                "geometry has {pages} pages, over the {} the page tables address",
                ida_ftl::map::MAX_PAGES
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a simulated SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// FTL configuration (geometry, refresh, GC, IDA error rate).
    pub ftl: FtlConfig,
    /// Flash timing parameters.
    pub timing: FlashTiming,
    /// Read-retry model (disabled by default; Section V-F experiments
    /// enable it).
    pub retry: RetryConfig,
}

ida_snap::snap_struct!(SsdConfig { ftl, timing, retry });

/// A stage of the untimed warm-up (prefill, age, steady-state refresh),
/// for [`SsdConfig::warm_view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStage {
    /// Prefill and age: no block has been refreshed yet.
    Prefix,
    /// The whole warm-up, through the steady-state refresh.
    Full,
}

/// Validating constructor for [`SsdConfig`]: starts from
/// [`SsdConfig::paper_baseline`], lets callers override the pieces they
/// care about, and [`build`](Self::build) rejects configurations no real
/// device could have (zero geometry, out-of-range fractions, inverted GC
/// watermarks) with a typed [`ConfigError`].
#[derive(Debug, Clone)]
pub struct SsdConfigBuilder {
    cfg: SsdConfig,
}

impl SsdConfigBuilder {
    /// Replace the whole FTL configuration.
    pub fn ftl(mut self, ftl: FtlConfig) -> Self {
        self.cfg.ftl = ftl;
        self
    }

    /// Replace the array geometry.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.cfg.ftl.geometry = geometry;
        self
    }

    /// Replace the flash timing parameters.
    pub fn timing(mut self, timing: FlashTiming) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Replace the read-retry model.
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Select the refresh flow (baseline or IDA-modified).
    pub fn refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.cfg.ftl.refresh_mode = mode;
        self
    }

    /// Set the IDA voltage-adjustment corruption rate (the E0–E80 knob).
    pub fn adjust_error_rate(mut self, rate: f64) -> Self {
        self.cfg.ftl.adjust_error_rate = rate;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`]: zero geometry dimensions, `bits_per_cell`
    /// outside 1–4, more pages than the page tables address, fractions
    /// outside their domain, a zero refresh period, or inverted GC
    /// watermarks.
    pub fn build(self) -> Result<SsdConfig, ConfigError> {
        let cfg = self.cfg;
        let g = cfg.ftl.geometry;
        for (field, v) in [
            ("channels", g.channels),
            ("chips_per_channel", g.chips_per_channel),
            ("dies_per_chip", g.dies_per_chip),
            ("planes_per_die", g.planes_per_die),
            ("blocks_per_plane", g.blocks_per_plane),
            ("wordlines_per_block", g.wordlines_per_block),
            ("page_size_bytes", g.page_size_bytes),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroGeometry { field });
            }
        }
        if !(1..=4).contains(&g.bits_per_cell) {
            return Err(ConfigError::BadBitsPerCell {
                bits: g.bits_per_cell,
            });
        }
        let pages = g.total_pages();
        if pages > ida_ftl::map::MAX_PAGES {
            return Err(ConfigError::TooManyPages { pages });
        }
        let op = cfg.ftl.overprovision;
        if !(0.0..1.0).contains(&op) {
            return Err(ConfigError::BadFraction {
                field: "overprovision",
                value: op,
            });
        }
        let err = cfg.ftl.adjust_error_rate;
        if !(0.0..=1.0).contains(&err) {
            return Err(ConfigError::BadFraction {
                field: "adjust_error_rate",
                value: err,
            });
        }
        if cfg.ftl.refresh_period == 0 {
            return Err(ConfigError::ZeroRefreshPeriod);
        }
        let (low, high) = (cfg.ftl.gc_low_watermark, cfg.ftl.gc_high_watermark);
        if low == 0 || low > high {
            return Err(ConfigError::BadWatermarks { low, high });
        }
        Ok(cfg)
    }
}

impl SsdConfig {
    /// Start a validating builder seeded with [`Self::paper_baseline`].
    pub fn builder() -> SsdConfigBuilder {
        SsdConfigBuilder {
            cfg: Self::paper_baseline(),
        }
    }

    /// The paper's baseline TLC SSD at experiment scale (scaled geometry,
    /// Table II timing, baseline refresh).
    pub fn paper_baseline() -> Self {
        SsdConfig {
            ftl: FtlConfig::default(),
            timing: FlashTiming::paper_tlc(),
            retry: RetryConfig::disabled(),
        }
    }

    /// The fields the untimed warm-up up to `stage` reads: `self` with
    /// `timing` and `retry` at the paper baseline's values (no warm-up
    /// read is timed or retried) and, for a prefix, which refreshes no
    /// block, the refresh policy too (`refresh_mode` Baseline,
    /// `adjust_error_rate` 0, `ftl.seed` 0). Configurations with equal
    /// views warm up alike but for those fields, which
    /// [`crate::Simulator::arm`] sets afterwards.
    pub fn warm_view(&self, stage: WarmStage) -> SsdConfig {
        let mut view = SsdConfig {
            ftl: self.ftl.clone(),
            ..Self::paper_baseline()
        };
        if stage == WarmStage::Prefix {
            view.ftl.refresh_mode = RefreshMode::Baseline;
            view.ftl.adjust_error_rate = 0.0;
            view.ftl.seed = 0;
        }
        view
    }

    /// A tiny configuration for unit tests: tiny geometry, paper timing.
    pub fn tiny_test() -> Self {
        SsdConfig {
            ftl: FtlConfig {
                geometry: Geometry::tiny(),
                ..FtlConfig::default()
            },
            timing: FlashTiming::paper_tlc(),
            retry: RetryConfig::disabled(),
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_every_paper_preset() {
        assert_eq!(
            SsdConfig::builder().build().unwrap(),
            SsdConfig::paper_baseline()
        );
        let ida = SsdConfig::builder()
            .refresh_mode(RefreshMode::Ida)
            .adjust_error_rate(0.2)
            .build()
            .unwrap();
        assert_eq!(ida.ftl.refresh_mode, RefreshMode::Ida);
        assert_eq!(ida.ftl.adjust_error_rate, 0.2);
        let tiny = SsdConfig::builder()
            .geometry(Geometry::tiny())
            .build()
            .unwrap();
        assert_eq!(tiny, SsdConfig::tiny_test());
    }

    #[test]
    fn builder_rejects_zero_geometry() {
        let mut g = Geometry::tiny();
        g.blocks_per_plane = 0;
        assert_eq!(
            SsdConfig::builder().geometry(g).build().unwrap_err(),
            ConfigError::ZeroGeometry {
                field: "blocks_per_plane"
            }
        );
        let mut g = Geometry::tiny();
        g.channels = 0;
        let err = SsdConfig::builder().geometry(g).build().unwrap_err();
        assert!(err.to_string().contains("channels"));
    }

    #[test]
    fn builder_bounds_the_page_count_by_the_u32_page_tables() {
        let paper = SsdConfig::builder()
            .geometry(Geometry::paper_512gb())
            .build()
            .unwrap();
        assert_eq!(paper.ftl.geometry.total_pages(), 67_239_936);
        let huge = Geometry {
            blocks_per_plane: 400_000,
            ..Geometry::paper_512gb()
        };
        let err = SsdConfig::builder().geometry(huge).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyPages {
                pages: 4_915_200_000
            }
        );
        assert!(err.to_string().contains("page tables"), "{err}");
    }

    #[test]
    fn builder_rejects_out_of_range_knobs() {
        let mut g = Geometry::tiny();
        g.bits_per_cell = 5;
        assert_eq!(
            SsdConfig::builder().geometry(g).build().unwrap_err(),
            ConfigError::BadBitsPerCell { bits: 5 }
        );
        assert_eq!(
            SsdConfig::builder()
                .adjust_error_rate(1.5)
                .build()
                .unwrap_err(),
            ConfigError::BadFraction {
                field: "adjust_error_rate",
                value: 1.5
            }
        );
        let ftl = FtlConfig {
            overprovision: 1.0,
            ..FtlConfig::default()
        };
        assert!(matches!(
            SsdConfig::builder().ftl(ftl).build().unwrap_err(),
            ConfigError::BadFraction {
                field: "overprovision",
                ..
            }
        ));
        let ftl = FtlConfig {
            refresh_period: 0,
            ..FtlConfig::default()
        };
        assert_eq!(
            SsdConfig::builder().ftl(ftl).build().unwrap_err(),
            ConfigError::ZeroRefreshPeriod
        );
        let ftl = FtlConfig {
            gc_low_watermark: 6,
            gc_high_watermark: 4,
            ..FtlConfig::default()
        };
        assert_eq!(
            SsdConfig::builder().ftl(ftl).build().unwrap_err(),
            ConfigError::BadWatermarks { low: 6, high: 4 }
        );
    }
}
