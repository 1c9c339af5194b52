//! The shared warm-up → measure protocol.
//!
//! Every experiment follows the same steps the paper's methodology implies:
//!
//! 1. **Prefill** the workload's footprint (sequential write of every LPN);
//! 2. **Age** with the workload's update traffic, creating the scattered
//!    invalid pages the paper's Figure 4 quantifies;
//! 3. **Steady-state refresh**: every closed block goes through one refresh
//!    cycle (IDA-converting eligible wordlines when the system under test
//!    uses IDA), with staggered timestamps so the next cycle trickles in;
//! 4. **Measure**: replay the timed trace and collect the report.

use ida_core::refresh::RefreshMode;
use ida_faults::FaultConfig;
use ida_flash::geometry::Geometry;
use ida_flash::timing::{FlashTiming, SimTime};
use ida_obs::gauge::GaugeSet;
use ida_obs::trace::{FilterSink, JsonlSink, SinkHandle, TraceEvent};
use ida_ssd::retry::RetryConfig;
use ida_ssd::{
    ClosedLoopSource, HostOp, HostOpKind, ListSource, Report, SimError, Simulator, SsdConfig,
};
use ida_sweep::{WarmCache, WarmTier};
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::trace::{OpKind, Trace};
use std::path::{Path, PathBuf};

/// Base seed of the warm-phase RNG stream. Cells that differ only in
/// post-warm-up axes (fault level, aging level, offered load, replay
/// mode) derive their simulator seed from this base and their *warm*
/// identity, so their warm-ups are bit-identical and one captured
/// snapshot can fork into all of them. Post-warm-up randomness (fault
/// plans, aging ladders, arrival processes, retry samplers) still
/// derives from the full per-cell stream seed.
pub const WARM_SEED_BASE: u64 = 0x1DA5_EEDA_B1E0_0001;

/// How big an experiment run is.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Geometry of the simulated SSD.
    pub geometry: Geometry,
    /// Host requests in the measured trace.
    pub requests: usize,
    /// Refresh period as a fraction of the measured trace span.
    pub refresh_period_frac: f64,
}

impl ExperimentScale {
    /// The default experiment scale: the scaled 8 GB geometry and a trace
    /// long enough for stable means.
    ///
    /// The refresh period defaults to 12× the measured span: the paper's
    /// periods (3 days – 3 months) are huge relative to per-second I/O, so
    /// at our compressed timescale almost no block hits its *next* refresh
    /// inside the measured window — the steady state (including IDA
    /// conversions) is established during warm-up, exactly as a long-lived
    /// device would arrive at it. Experiments that want live refresh
    /// traffic inside the window lower `refresh_period_frac` below 1.
    pub fn default_scale() -> Self {
        ExperimentScale {
            geometry: Geometry::scaled_8gb(),
            requests: 40_000,
            refresh_period_frac: 12.0,
        }
    }

    /// A smaller scale for smoke tests and CI.
    pub fn smoke() -> Self {
        ExperimentScale {
            geometry: Geometry::scaled_8gb(),
            requests: 6_000,
            refresh_period_frac: 12.0,
        }
    }

    /// Scale with a different request count.
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// The scale selected by environment variables: `IDA_SCALE=smoke|full`
    /// (default: the standard scale) and `IDA_REQUESTS=<n>` to override
    /// the request count directly.
    pub fn from_env() -> Self {
        let mut scale = match std::env::var("IDA_SCALE").as_deref() {
            Ok("smoke") => Self::smoke(),
            Ok("full") => Self::default_scale().with_requests(120_000),
            _ => Self::default_scale(),
        };
        if let Ok(n) = std::env::var("IDA_REQUESTS") {
            if let Ok(n) = n.parse() {
                scale.requests = n;
            }
        }
        scale
    }
}

/// Default gauge sampling interval: 1 ms of simulated time.
pub const DEFAULT_GAUGE_INTERVAL_NS: u64 = 1_000_000;

/// Observability options threaded into measured runs: where to write the
/// event trace and metrics report, whether to show progress, and how
/// often to sample gauges. The default (all off) adds no overhead — the
/// simulator keeps its null sink.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's event trace as JSONL to this path.
    pub trace_out: Option<PathBuf>,
    /// Write the run's [`Report`] as JSON to this path.
    pub metrics_json: Option<PathBuf>,
    /// Report run progress on stderr.
    pub progress: bool,
    /// Gauge sampling interval in simulated ns (`None` = no gauges;
    /// defaults to [`DEFAULT_GAUGE_INTERVAL_NS`] when metrics are
    /// requested).
    pub gauge_interval_ns: Option<u64>,
    /// Comma-separated event-class filter for the trace output
    /// (`host,ftl,gc,refresh,fault,span`; `None` = keep everything), so
    /// span-heavy traces stay bounded.
    pub trace_filter: Option<String>,
}

impl ObsOptions {
    /// Options selected by environment variables, for the experiment
    /// binaries: `IDA_TRACE_OUT=<path>`, `IDA_METRICS_JSON=<path>`,
    /// `IDA_PROGRESS=1`, `IDA_GAUGE_INTERVAL_US=<n>`,
    /// `IDA_TRACE_FILTER=<class>[,<class>...]`.
    pub fn from_env() -> Self {
        ObsOptions {
            trace_out: std::env::var_os("IDA_TRACE_OUT").map(PathBuf::from),
            metrics_json: std::env::var_os("IDA_METRICS_JSON").map(PathBuf::from),
            progress: std::env::var("IDA_PROGRESS").is_ok_and(|v| v != "0" && !v.is_empty()),
            gauge_interval_ns: std::env::var("IDA_GAUGE_INTERVAL_US")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map(|us| us.max(1) * 1_000),
            trace_filter: std::env::var("IDA_TRACE_FILTER").ok(),
        }
    }

    /// Whether any output or progress option is set.
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_json.is_some() || self.progress
    }

    /// A copy whose output paths carry a per-run `label` suffix
    /// (`trace.jsonl` → `trace.<label>.jsonl`), so one option set can
    /// serve several runs without the later overwriting the earlier.
    pub fn suffixed(&self, label: &str) -> Self {
        ObsOptions {
            trace_out: self.trace_out.as_deref().map(|p| suffix_path(p, label)),
            metrics_json: self.metrics_json.as_deref().map(|p| suffix_path(p, label)),
            ..self.clone()
        }
    }

    /// Attach the selected sinks to `sim`. Call before warm-up so trace
    /// event counts match the cumulative end-of-run FTL counters.
    ///
    /// # Errors
    ///
    /// Fails if the trace file cannot be created, or if the trace filter
    /// names an unknown event class.
    pub fn attach(&self, sim: &mut Simulator, label: &str) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            let jsonl = JsonlSink::create(path)?;
            let handle = match &self.trace_filter {
                Some(spec) => {
                    let filtered = FilterSink::new(jsonl, spec)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
                    SinkHandle::new(filtered)
                }
                None => SinkHandle::new(jsonl),
            };
            handle.emit_with(|| TraceEvent::RunStart {
                t: sim.now(),
                label: label.to_string(),
            });
            sim.set_trace(handle);
            // A trace requested through ObsOptions always carries spans —
            // the analyzer needs them for attribution replay.
            sim.set_spans(true);
        }
        if let Some(interval) = self.gauge_interval_ns {
            sim.set_gauges(GaugeSet::every(interval));
        } else if self.metrics_json.is_some() {
            sim.set_gauges(GaugeSet::every(DEFAULT_GAUGE_INTERVAL_NS));
        }
        sim.set_progress(self.progress);
        Ok(())
    }

    /// Flush the trace and write the metrics report, as configured.
    ///
    /// # Errors
    ///
    /// Fails if either file cannot be written.
    pub fn finish(&self, sim: &Simulator, report: &Report) -> std::io::Result<()> {
        sim.flush_trace()?;
        if let Some(path) = &self.metrics_json {
            std::fs::write(path, report.to_json() + "\n")?;
        }
        Ok(())
    }
}

fn suffix_path(path: &Path, label: &str) -> PathBuf {
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => path.with_extension(format!("{label}.{ext}")),
        None => path.with_extension(label),
    }
}

/// How the measured trace is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Open loop: honor trace timestamps (response-time experiments).
    OpenLoop,
    /// Closed loop at the given queue depth: saturation replay
    /// (throughput experiments, Figure 10).
    ClosedLoop(usize),
}

/// The system variants the paper compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemUnderTest {
    /// Conventional coding, baseline refresh.
    Baseline,
    /// IDA coding with the given voltage-adjustment error rate
    /// (`IDA-Coding-E20` ⇒ `error_rate = 0.20`).
    Ida {
        /// Fraction of reprogrammed pages corrupted by the adjustment.
        error_rate: f64,
    },
}

impl SystemUnderTest {
    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            SystemUnderTest::Baseline => "Baseline".into(),
            SystemUnderTest::Ida { error_rate } => {
                format!("IDA-E{:.0}", error_rate * 100.0)
            }
        }
    }
}

/// One workload × system measurement.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// System label.
    pub system: String,
    /// The measured report.
    pub report: Report,
}

/// Build the `SsdConfig` for a system under test.
///
/// # Panics
///
/// On a structurally invalid configuration (zero geometry, out-of-range
/// error rate). Cells run under `catch_unwind`, so inside a sweep this
/// becomes a per-cell failure record rather than taking down the run.
pub fn system_config(
    system: SystemUnderTest,
    geometry: Geometry,
    timing: FlashTiming,
    retry: RetryConfig,
) -> SsdConfig {
    try_system_config(system, geometry, timing, retry).unwrap_or_else(|e| panic!("{e}"))
}

/// [`system_config`], returning the invalid-configuration message
/// instead of panicking with it.
///
/// # Errors
///
/// On a structurally invalid configuration.
pub(crate) fn try_system_config(
    system: SystemUnderTest,
    geometry: Geometry,
    timing: FlashTiming,
    retry: RetryConfig,
) -> Result<SsdConfig, String> {
    let builder = SsdConfig::builder()
        .geometry(geometry)
        .timing(timing)
        .retry(retry);
    let builder = match system {
        SystemUnderTest::Baseline => builder.refresh_mode(RefreshMode::Baseline),
        SystemUnderTest::Ida { error_rate } => builder
            .refresh_mode(RefreshMode::Ida)
            .adjust_error_rate(error_rate),
    };
    builder
        .build()
        .map_err(|e| format!("invalid system config: {e}"))
}

/// Convert a workload trace to simulator host ops.
pub fn to_host_ops(trace: &Trace) -> Vec<HostOp> {
    trace
        .records
        .iter()
        .map(|r| HostOp {
            at: r.at,
            kind: match r.kind {
                OpKind::Read => HostOpKind::Read,
                OpKind::Write => HostOpKind::Write,
            },
            lpn: r.page,
            pages: r.pages,
        })
        .collect()
}

/// Run one workload on one pre-built config, following the warm-up →
/// measure protocol. Returns the measured report.
pub fn run_config(preset: &WorkloadPreset, cfg: SsdConfig, scale: &ExperimentScale) -> Report {
    run_config_mode(preset, cfg, scale, ReplayMode::OpenLoop)
}

/// [`run_config`] with an explicit replay mode.
pub fn run_config_mode(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    mode: ReplayMode,
) -> Report {
    run_config_faulted(preset, cfg, scale, mode, None)
}

/// [`run_config_mode`] with a fault plan armed *after* warm-up, so every
/// injected fault lands inside the measured window (warm-up stays clean,
/// like a device that degrades in service).
pub fn run_config_faulted(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    mode: ReplayMode,
    faults: Option<FaultConfig>,
) -> Report {
    run_config_faulted_cached(preset, cfg, scale, mode, faults, None)
}

/// [`run_config_faulted`] with an optional warm-state cache: on a cache
/// hit the warm-up is skipped entirely and the simulator is restored
/// from the captured snapshot — byte-identical state, by the snapshot
/// layer's differential invariant, so results never depend on whether
/// (or how often) the cache hit.
pub fn run_config_faulted_cached(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    mode: ReplayMode,
    faults: Option<FaultConfig>,
    warm: Option<&WarmCache>,
) -> Report {
    let (mut sim, trace) = warmed_simulator_cached(preset, cfg, scale, warm);
    if let Some(faults) = faults {
        sim.arm_faults(faults);
    }
    // Experiment runs always carry attribution spans, so every sweep cell
    // exports its waterfall.
    sim.set_spans(true);
    let ops = to_host_ops(&trace);
    match mode {
        ReplayMode::OpenLoop => sim.run(ops),
        ReplayMode::ClosedLoop(depth) => ClosedLoopSource::new(ops, depth)
            .and_then(|mut source| sim.run_source(&mut source))
            .unwrap_or_else(|e| panic!("closed-loop replay failed: {e}")),
    }
}

/// Why an imported-trace replay could not produce a report.
#[derive(Debug)]
pub enum ReplayError {
    /// Observability output (trace/metrics files) failed.
    Io(std::io::Error),
    /// The simulator rejected the trace (e.g. unsorted arrivals) — the
    /// typed [`SimError`] instead of the `Simulator::run` panic, because
    /// imported traces are user input, not harness bugs.
    Sim(SimError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "observability output failed: {e}"),
            ReplayError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> Self {
        ReplayError::Sim(e)
    }
}

/// Replay an imported trace (e.g. an MSR Cambridge volume) on one system.
///
/// Imported traces carry no preset, so warm-up is the minimal honest
/// version: fold the trace onto a footprint-sized slice of the device,
/// prefill that footprint, put refresh on the trace's own span, run one
/// staggered refresh cycle, then measure. Open loop replays the trace's
/// own arrival times through a [`ListSource`] (an unsorted trace is an
/// error, not a panic); closed loop ignores them and keeps `depth`
/// requests in flight.
///
/// # Errors
///
/// [`ReplayError::Sim`] when the simulator rejects the trace,
/// [`ReplayError::Io`] when observability output fails.
pub fn replay_trace(
    trace: &Trace,
    system: SystemUnderTest,
    scale: &ExperimentScale,
    mode: ReplayMode,
    obs: &ObsOptions,
) -> Result<Report, ReplayError> {
    let cfg = system_config(
        system,
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    );
    let mut sim = Simulator::new(cfg);
    obs.attach(&mut sim, &format!("replay {}", system.label()))?;
    // Fold onto at most half the exported space so GC and refresh have
    // room to breathe, like the presets' footprint fractions.
    let exported = sim.ftl().exported_pages();
    let folded = ida_workloads::msr::fold_to_footprint(trace, (exported / 2).max(1_000));
    let footprint = folded.footprint_pages().max(1_000);
    sim.prefill(0..footprint);
    let span = folded.span().max(1);
    let period = (span as f64 * scale.refresh_period_frac) as SimTime;
    sim.set_refresh_period(period.max(1));
    sim.force_refresh_all(span / 2);
    sim.set_spans(true);
    let ops = to_host_ops(&folded);
    let report = match mode {
        ReplayMode::OpenLoop => sim.run_source(&mut ListSource::new(ops)?)?,
        ReplayMode::ClosedLoop(depth) => sim.run_source(&mut ClosedLoopSource::new(ops, depth)?)?,
    };
    obs.finish(&sim, &report)?;
    Ok(report)
}

/// Build a simulator warmed to the steady state for `preset` and return it
/// together with the measured trace, for experiments that need to inspect
/// or drive the device beyond a single measured run.
pub fn warmed_simulator(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
) -> (Simulator, Trace) {
    let mut sim = Simulator::new(cfg);
    let trace = warm_up(&mut sim, preset, scale);
    (sim, trace)
}

/// The warm-up cache key: an FNV-1a fingerprint over everything the
/// warm-up protocol reads — the workload (which seeds every generated
/// trace), the experiment scale (request count and refresh-period
/// fraction shape the steady-state refresh), and the full binary-encoded
/// [`SsdConfig`] (geometry, timing, FTL knobs, seed). Post-warm-up
/// inputs — fault plans, aging models, arrival processes, replay mode —
/// are deliberately *not* part of the configuration at warm time (they
/// are armed after), so they fall out of the key and sibling cells
/// share one warm-up.
pub fn warm_cache_key(workload: &str, cfg: &SsdConfig, scale: &ExperimentScale) -> u64 {
    let mut w = ida_snap::Writer::new();
    ida_snap::Snap::encode(&workload.to_string(), &mut w);
    ida_snap::Snap::encode(&scale.geometry, &mut w);
    ida_snap::Snap::encode(&scale.requests, &mut w);
    ida_snap::Snap::encode(&scale.refresh_period_frac, &mut w);
    ida_snap::Snap::encode(cfg, &mut w);
    ida_snap::fnv1a(&w.into_bytes())
}

/// The configuration a warm-up prefix ([`warm_prefix`]) is built under:
/// `cfg` with the refresh policy — `refresh_mode`, `adjust_error_rate`
/// and the interference seed `ftl.seed`, the only fields in which the
/// paper's system columns differ — set to fixed values. Prefill and age
/// never read those fields, so every system column of a workload shares
/// one prefix, and [`Simulator::arm_refresh`] turns it into the prefix
/// the column would have built itself.
pub fn prefix_config(cfg: &SsdConfig) -> SsdConfig {
    let mut prefix = cfg.clone();
    prefix.ftl.refresh_mode = RefreshMode::Baseline;
    prefix.ftl.adjust_error_rate = 0.0;
    prefix.ftl.seed = 0;
    prefix
}

/// The key of a warm-up prefix in the cache's prefix tier:
/// [`warm_cache_key`] over [`prefix_config`].
pub fn prefix_cache_key(workload: &str, cfg: &SsdConfig, scale: &ExperimentScale) -> u64 {
    warm_cache_key(workload, &prefix_config(cfg), scale)
}

/// [`warmed_simulator`] through an optional warm-state cache, built in
/// two cached stages. The full warm state is looked up under
/// [`warm_cache_key`]; only its first requester builds it, by taking the
/// workload's shared prefix from the prefix tier (under
/// [`prefix_cache_key`], building it on a miss), arming the cell's own
/// refresh policy with [`Simulator::arm_refresh`], and running
/// [`warm_tail`]. Every other requester forks the captured bytes. The
/// measured trace is regenerated directly from the preset (a pure
/// function of workload, footprint and request count), so a hit touches
/// no simulator at all until the fork.
///
/// Each stage captures an image only when the cache says another
/// request will fork it (see [`WarmCache::plan`]), and a builder keeps
/// the simulator it just warmed instead of restoring from its own
/// snapshot: the snapshot canonical-form invariant (restore → run is
/// byte-identical to keep running, proven by the differential tests in
/// `ida-ssd`) makes the live simulator and the fork interchangeable, and
/// the prefix differential test (`tests/warm_prefix.rs`) proves a forked,
/// re-armed prefix byte-equal to one built under the cell's own config.
/// The result is byte-identical to [`warmed_simulator`].
pub fn warmed_simulator_cached(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    warm: Option<&WarmCache>,
) -> (Simulator, Trace) {
    let Some(cache) = warm else {
        return warmed_simulator(preset, cfg, scale);
    };
    let key = warm_cache_key(&preset.spec.name, &cfg, scale);
    let mut live = None;
    let image = cache.get_or_build_live(WarmTier::Full, key, |capture| {
        let mut sim = prefix_simulator(preset, &cfg, scale, cache);
        let policy = &cfg.ftl;
        sim.arm_refresh(policy.refresh_mode, policy.adjust_error_rate, policy.seed);
        let trace = warm_tail(&mut sim, preset, scale);
        let bytes = capture.then(|| sim.snapshot());
        live = Some((sim, trace));
        bytes
    });
    if let Some(warmed) = live {
        return warmed;
    }
    let sim = fork(image.as_deref(), key);
    let footprint = footprint(preset, cfg.ftl.exported_pages());
    (sim, preset.generate(footprint, scale.requests))
}

/// The prefix `cfg`'s warm-up starts from, still under
/// [`prefix_config`]: forked from the cache's prefix tier, or built live
/// when this caller is the first to need it.
fn prefix_simulator(
    preset: &WorkloadPreset,
    cfg: &SsdConfig,
    scale: &ExperimentScale,
    cache: &WarmCache,
) -> Simulator {
    let key = prefix_cache_key(&preset.spec.name, cfg, scale);
    let mut live = None;
    let image = cache.get_or_build_live(WarmTier::Prefix, key, |capture| {
        let mut sim = Simulator::new(prefix_config(cfg));
        warm_prefix(&mut sim, preset);
        let bytes = capture.then(|| sim.snapshot());
        live = Some(sim);
        bytes
    });
    live.unwrap_or_else(|| fork(image.as_deref(), key))
}

/// A simulator restored from the cached image for `key`.
fn fork(image: Option<&Vec<u8>>, key: u64) -> Simulator {
    let image = image.unwrap_or_else(|| panic!("no warm image for key {key:016x}"));
    Simulator::from_snapshot(image)
        .unwrap_or_else(|e| panic!("warm snapshot for key {key:016x} failed to restore: {e}"))
}

/// The LPN footprint a workload's warm-up writes on a device exporting
/// `exported` pages.
pub fn footprint(preset: &WorkloadPreset, exported: u64) -> u64 {
    ((exported as f64 * preset.footprint_frac) as u64).max(1_000)
}

/// Run the warm-up protocol on an existing simulator (so observability
/// sinks attached at creation see the warm-up events too) and return the
/// measured trace: [`warm_prefix`], then [`warm_tail`].
pub fn warm_up(sim: &mut Simulator, preset: &WorkloadPreset, scale: &ExperimentScale) -> Trace {
    warm_prefix(sim, preset);
    warm_tail(sim, preset, scale)
}

/// Warm-up stages 1–2, the **prefix**: prefill the footprint, then age
/// it with the workload's update traffic (layout history + wear). No
/// block is refreshed yet, so the refresh policy is never read.
pub fn warm_prefix(sim: &mut Simulator, preset: &WorkloadPreset) {
    let footprint = footprint(preset, sim.ftl().exported_pages());
    sim.prefill(0..footprint);
    let aging = to_host_ops(&preset.aging_trace(footprint));
    sim.age(&aging);
}

/// Warm-up stages 3–4, the **steady tail** after [`warm_prefix`]: put
/// refresh on the measured trace's span and run the refresh protocol to
/// its steady state. Returns the measured trace.
pub fn warm_tail(sim: &mut Simulator, preset: &WorkloadPreset, scale: &ExperimentScale) -> Trace {
    let footprint = footprint(preset, sim.ftl().exported_pages());
    // 3. Steady-state refresh to the fixed point: two refresh cycles with
    //    update traffic in between, so blocks that absorbed the first
    //    cycle's migrated pages have been through their own refresh too —
    //    the state a long-lived device reaches after many periods.
    let trace = preset.generate(footprint, scale.requests);
    let span = trace.span().max(1);
    let period = (span as f64 * scale.refresh_period_frac) as SimTime;
    sim.set_refresh_period(period.max(1));
    sim.force_refresh_all(span / 2);
    let reage1 = to_host_ops(&preset.reage_trace(footprint));
    sim.age(&reage1);
    sim.force_refresh_all(span / 2);
    // 4. Re-age: updates accumulate between refresh cycles, so the window
    //    opens with partially invalidated blocks (paper Table IV).
    let reage2 = to_host_ops(&preset.reage_trace2(footprint));
    sim.age(&reage2);
    trace
}

/// Run one workload on one system at the paper's TLC timing.
///
/// Observability options are picked up from the environment (see
/// [`ObsOptions::from_env`]); output paths get a `<workload>_<system>`
/// suffix so sweeps over several runs don't overwrite each other.
pub fn run_system(
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    scale: &ExperimentScale,
) -> WorkloadRun {
    let obs = ObsOptions::from_env();
    let obs = obs.suffixed(&format!("{}_{}", preset.spec.name, system.label()));
    run_system_obs(preset, system, scale, &obs).expect("observability output failed")
}

/// [`run_system`] with explicit observability options (used by the CLI;
/// paths are taken as given, without a per-run suffix).
///
/// # Errors
///
/// Fails if a requested trace or metrics file cannot be written.
pub fn run_system_obs(
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    scale: &ExperimentScale,
    obs: &ObsOptions,
) -> std::io::Result<WorkloadRun> {
    let cfg = system_config(
        system,
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    );
    let mut sim = Simulator::new(cfg);
    obs.attach(
        &mut sim,
        &format!("{}/{}", preset.spec.name, system.label()),
    )?;
    sim.set_spans(true);
    let trace = warm_up(&mut sim, preset, scale);
    let report = sim.run(to_host_ops(&trace));
    obs.finish(&sim, &report)?;
    Ok(WorkloadRun {
        workload: preset.spec.name.clone(),
        system: system.label(),
        report,
    })
}

/// Normalized mean read response time of `ida` versus `baseline`
/// (< 1.0 means IDA is faster).
pub fn normalized_read_response(ida: &Report, baseline: &Report) -> f64 {
    let base = baseline.reads.mean();
    if base == 0.0 {
        return 1.0;
    }
    ida.reads.mean() / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use ida_workloads::suite::paper_workload;

    #[test]
    fn smoke_run_produces_reads_and_writes() {
        let preset = paper_workload("hm_1").unwrap();
        let scale = ExperimentScale::smoke().with_requests(1_500);
        let run = run_system(&preset, SystemUnderTest::Baseline, &scale);
        assert!(run.report.reads.count > 500);
        assert!(run.report.writes.count > 0);
        assert!(run.report.reads.mean() > 0.0);
    }

    #[test]
    fn ida_beats_baseline_on_a_read_heavy_workload() {
        let preset = paper_workload("proj_1").unwrap();
        let scale = ExperimentScale::smoke();
        let base = run_system(&preset, SystemUnderTest::Baseline, &scale);
        let ida = run_system(&preset, SystemUnderTest::Ida { error_rate: 0.0 }, &scale);
        let norm = normalized_read_response(&ida.report, &base.report);
        assert!(
            norm < 0.95,
            "IDA-E0 should clearly improve read response, got {norm}"
        );
        assert!(ida.report.breakdown.ida > 0, "IDA reads must occur");
    }
}
