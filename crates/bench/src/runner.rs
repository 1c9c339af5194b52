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
    ClosedLoopSource, HostOp, ListSource, Report, SimError, Simulator, SsdConfig, WarmStage,
};
use ida_sweep::{WarmCache, WarmTier};
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::trace::Trace;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Base seed of the warm-phase RNG stream. Cells that differ only in
/// post-warm-up axes (fault level, aging level, offered load, replay
/// mode) derive their simulator seed from this base and their *warm*
/// identity, so their warm-ups are bit-identical and one frozen warm
/// state can fork into all of them. Post-warm-up randomness (fault
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

    /// [`ExperimentScale::from_vars`] over the environment variables.
    ///
    /// # Errors
    ///
    /// An unknown `IDA_SCALE` or a malformed `IDA_REQUESTS`.
    pub fn from_env() -> Result<Self, String> {
        let var = |name| std::env::var(name).ok();
        Self::from_vars(var("IDA_SCALE").as_deref(), var("IDA_REQUESTS").as_deref())
    }

    /// The scale selected by `IDA_SCALE=smoke|full` (`None`, unset: the
    /// standard scale), with `IDA_REQUESTS=<n>` overriding the request count.
    ///
    /// # Errors
    ///
    /// Any other scale, or a count [`parse_requests`] rejects, named with
    /// its variable: a typo fails instead of running another experiment.
    pub fn from_vars(scale: Option<&str>, requests: Option<&str>) -> Result<Self, String> {
        let mut out = match scale {
            None => Self::default_scale(),
            Some("smoke") => Self::smoke(),
            Some("full") => Self::default_scale().with_requests(120_000),
            Some(other) => return Err(format!("IDA_SCALE={other}: expected smoke or full")),
        };
        if let Some(n) = requests {
            out.requests = parse_requests(n).map_err(|e| format!("IDA_REQUESTS={n}: {e}"))?;
        }
        Ok(out)
    }
}

/// Parse a measured request count (`--requests`, `IDA_REQUESTS`).
///
/// # Errors
///
/// Anything but a non-negative integer, as `bad request count: …`.
pub fn parse_requests(v: &str) -> Result<usize, String> {
    v.parse().map_err(|e| format!("bad request count: {e}"))
}

/// Default gauge sampling interval: 1 ms of simulated time.
pub const DEFAULT_GAUGE_INTERVAL_NS: u64 = 1_000_000;

/// Observability options threaded into measured runs: where to write the
/// event trace and metrics report, and whether to show progress. Gauges
/// are sampled every [`DEFAULT_GAUGE_INTERVAL_NS`] when metrics are
/// requested. The default (all off) adds no overhead — the simulator
/// keeps its null sink.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write the run's event trace as JSONL to this path.
    pub trace_out: Option<PathBuf>,
    /// Write the run's [`Report`] as JSON to this path.
    pub metrics_json: Option<PathBuf>,
    /// Report run progress on stderr.
    pub progress: bool,
    /// Comma-separated event-class filter for the trace output
    /// (`host,ftl,gc,refresh,fault,span`; `None` = keep everything), so
    /// span-heavy traces stay bounded.
    pub trace_filter: Option<String>,
}

impl ObsOptions {
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
        if self.metrics_json.is_some() {
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

/// The paper's TLC device for `system` at `scale`: Table II timing, no
/// read retry.
pub fn tlc_config(system: SystemUnderTest, scale: &ExperimentScale) -> SsdConfig {
    system_config(
        system,
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    )
}

/// A copy of a trace's host ops. Its records already are the simulator's
/// input, so a run that owns the trace hands over `trace.records` instead.
pub fn to_host_ops(trace: &Trace) -> Vec<HostOp> {
    trace.records.clone()
}

/// Run one workload on one pre-built config, following the warm-up →
/// measure protocol, open loop and fault-free. Returns the measured
/// report.
pub fn run_config(preset: &WorkloadPreset, cfg: SsdConfig, scale: &ExperimentScale) -> Report {
    let (sim, trace) = warmed_simulator(preset, cfg, scale, None);
    run_warmed(sim, trace, ReplayMode::OpenLoop, None)
}

/// The measured half of a replay run, on a warmed simulator: arm the
/// optional fault plan — after warm-up, so every injected fault lands
/// inside the measured window (warm-up stays clean, like a device that
/// degrades in service) — and replay `trace` in `mode`. Experiment runs
/// always carry attribution spans, so every sweep cell exports its
/// waterfall.
pub fn run_warmed(
    mut sim: Simulator,
    trace: Trace,
    mode: ReplayMode,
    faults: Option<FaultConfig>,
) -> Report {
    if let Some(faults) = faults {
        sim.arm_faults(faults);
    }
    sim.set_spans(true);
    match mode {
        ReplayMode::OpenLoop => sim.run(trace.records),
        ReplayMode::ClosedLoop(depth) => ClosedLoopSource::new(trace.records, depth)
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
    mut trace: Trace,
    system: SystemUnderTest,
    scale: &ExperimentScale,
    mode: ReplayMode,
    obs: &ObsOptions,
) -> Result<Report, ReplayError> {
    let mut sim = Simulator::new(tlc_config(system, scale));
    obs.attach(&mut sim, &format!("replay {}", system.label()))?;
    // Fold onto at most half the exported space so GC and refresh have
    // room to breathe, like the presets' footprint fractions.
    let exported = sim.ftl().exported_pages();
    ida_workloads::msr::fold_to_footprint(&mut trace, (exported / 2).max(1_000));
    let footprint = trace.footprint_pages().max(1_000);
    sim.prefill(0..footprint);
    let span = trace.span().max(1);
    let period = (span as f64 * scale.refresh_period_frac) as SimTime;
    sim.set_refresh_period(period.max(1));
    sim.force_refresh_all(span / 2);
    sim.set_spans(true);
    let report = match mode {
        ReplayMode::OpenLoop => sim.run_source(&mut ListSource::new(trace.records)?)?,
        ReplayMode::ClosedLoop(depth) => {
            sim.run_source(&mut ClosedLoopSource::new(trace.records, depth)?)?
        }
    };
    obs.finish(&sim, &report)?;
    Ok(report)
}

/// The warm-up cache key: an FNV-1a fingerprint over everything the
/// warm-up protocol reads — the workload (which seeds every generated
/// trace), the experiment scale (request count and refresh-period
/// fraction shape the steady-state refresh), and the binary-encoded full
/// warm view of `cfg` ([`SsdConfig::warm_view`]; a configuration at the
/// baseline timing and retry model is its own view). Post-warm-up
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
    ida_snap::Snap::encode(&cfg.warm_view(WarmStage::Full), &mut w);
    ida_snap::fnv1a(&w.into_bytes())
}

/// The key of a warm-up prefix ([`warm_prefix`]) in the cache's prefix
/// tier: [`warm_cache_key`] over the prefix view, which also drops the
/// refresh policy, so every system, ΔtR and lifetime-phase column of a
/// workload shares one prefix.
pub fn prefix_cache_key(workload: &str, cfg: &SsdConfig, scale: &ExperimentScale) -> u64 {
    warm_cache_key(workload, &cfg.warm_view(WarmStage::Prefix), scale)
}

/// A simulator under `cfg` warmed to the steady state for `preset`
/// ([`warm_up`]), with its measured trace. Without a cache (`None`) it
/// warms up on its own; through a warm-state cache it is built in two
/// cached stages. Only the first requester of a full warm state (under
/// [`warm_cache_key`]) builds it: on the workload's prefix and
/// [`tail_traces`] from the prefix tier (under [`prefix_cache_key`],
/// built under the prefix view on a miss), it arms `cfg` with
/// [`Simulator::arm`] and runs [`warm_tail`]. Every other requester gets
/// a [`Simulator::fork`] of the frozen state with its measured trace, so
/// a hit generates no trace, and arms `cfg` too, which sets the timing
/// and retry model the state's builder may have had otherwise.
///
/// A fork continues byte for byte like the simulator it copies (the fork
/// ≡ restore ≡ keep running differential in `ida-ssd`'s
/// `tests/snapshot.rs`), and the view differential tests there and in
/// this crate's `tests/warm_prefix.rs` prove a forked, armed state
/// byte-equal to one built under the cell's own config, so the result is
/// byte-identical with or without a cache.
pub fn warmed_simulator(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    warm: Option<&WarmCache>,
) -> (Simulator, Trace) {
    let Some(cache) = warm else {
        let mut sim = Simulator::new(cfg);
        let trace = warm_up(&mut sim, preset, scale);
        return (sim, trace);
    };
    let name = &preset.spec.name;
    let key = warm_cache_key(name, &cfg, scale);
    let bytes = |t: &Trace| size_of_val(&*t.records) as u64;
    let (mut sim, trace) = fork_or_build(cache, WarmTier::Full, key, bytes, || {
        let key = prefix_cache_key(name, &cfg, scale);
        let tail_bytes = |t: &Arc<[Trace; 3]>| t.iter().map(bytes).sum();
        let (mut sim, traces) = fork_or_build(cache, WarmTier::Prefix, key, tail_bytes, || {
            let mut sim = Simulator::new(cfg.warm_view(WarmStage::Prefix));
            warm_prefix(&mut sim, preset);
            let traces = tail_traces(preset, sim.ftl().exported_pages(), scale);
            (sim, Arc::new(traces))
        });
        sim.arm(&cfg);
        warm_tail(&mut sim, &traces, scale);
        (sim, traces[0].clone())
    });
    sim.arm(&cfg);
    (sim, trace)
}

/// One cached warm stage's simulator and the traces it determines: built
/// live by `build` for the first requester of `key` in `tier`, which
/// freezes a [`Simulator::fork`], sized by its tables' heap bytes plus
/// `trace_bytes`, only when another request will fork it; otherwise a fork
/// of the frozen state, or the state itself for the last planned request.
fn fork_or_build<T: Clone + Send + Sync + 'static>(
    cache: &WarmCache,
    tier: WarmTier,
    key: u64,
    trace_bytes: impl FnOnce(&T) -> u64,
    build: impl FnOnce() -> (Simulator, T),
) -> (Simulator, T) {
    let mut live = None;
    let frozen = cache.get_or_build_live(tier, key, |capture| {
        let (sim, extra) = build();
        let frozen = capture.then(|| {
            let bytes = sim.ftl().heap_bytes() + trace_bytes(&extra);
            (bytes, (sim.fork(), extra.clone()))
        });
        live = Some((sim, extra));
        frozen
    });
    live.unwrap_or_else(|| {
        let frozen = frozen.unwrap_or_else(|| panic!("no warm state for key {key:016x}"));
        Arc::try_unwrap(frozen).unwrap_or_else(|shared| (shared.0.fork(), shared.1.clone()))
    })
}

/// The LPN footprint a workload's warm-up writes on a device exporting
/// `exported` pages.
pub fn footprint(preset: &WorkloadPreset, exported: u64) -> u64 {
    ((exported as f64 * preset.footprint_frac) as u64).max(1_000)
}

/// Run the warm-up protocol on an existing simulator (so observability
/// sinks attached at creation see the warm-up events too) and return the
/// measured trace: [`warm_prefix`], then [`warm_tail`], generating each
/// trace once.
pub fn warm_up(sim: &mut Simulator, preset: &WorkloadPreset, scale: &ExperimentScale) -> Trace {
    warm_prefix(sim, preset);
    let traces = tail_traces(preset, sim.ftl().exported_pages(), scale);
    warm_tail(sim, &traces, scale);
    let [measured, ..] = traces;
    measured
}

/// Warm-up stages 1–2, the **prefix**: prefill the footprint, then age
/// it with the workload's update traffic (layout history + wear). No
/// block is refreshed yet, so the refresh policy is never read.
pub fn warm_prefix(sim: &mut Simulator, preset: &WorkloadPreset) {
    let footprint = footprint(preset, sim.ftl().exported_pages());
    sim.prefill(0..footprint);
    sim.age(&preset.aging_trace(footprint).records);
}

/// The traces the steady tail reads — the measured trace, whose span sets
/// the refresh period, and the two re-age traces — pure functions of the
/// workload, its footprint and the request count, so a prefix's key
/// fixes them and every system column of a workload shares one set.
pub fn tail_traces(preset: &WorkloadPreset, exported: u64, scale: &ExperimentScale) -> [Trace; 3] {
    let footprint = footprint(preset, exported);
    let measured = preset.generate(footprint, scale.requests);
    [
        measured,
        preset.reage_trace(footprint),
        preset.reage_trace2(footprint),
    ]
}

/// Warm-up stages 3–4, the **steady tail** after [`warm_prefix`], on its
/// [`tail_traces`]: put refresh on the measured trace's span and run the
/// refresh protocol to its steady state.
pub fn warm_tail(sim: &mut Simulator, traces: &[Trace; 3], scale: &ExperimentScale) {
    let [measured, reage, reage2] = traces;
    // 3. Steady-state refresh to the fixed point: two refresh cycles with
    //    update traffic in between, so blocks that absorbed the first
    //    cycle's migrated pages have been through their own refresh too —
    //    the state a long-lived device reaches after many periods.
    let span = measured.span().max(1);
    let period = (span as f64 * scale.refresh_period_frac) as SimTime;
    sim.set_refresh_period(period.max(1));
    sim.force_refresh_all(span / 2);
    sim.age(&reage.records);
    sim.force_refresh_all(span / 2);
    // 4. Re-age: updates accumulate between refresh cycles, so the window
    //    opens with partially invalidated blocks (paper Table IV).
    sim.age(&reage2.records);
}

/// Run one workload on one system on the paper's TLC device
/// ([`tlc_config`]), with the given observability options attached before
/// warm-up (used by the CLI; paths are taken as given, without a per-run
/// suffix), and return the measured report.
///
/// # Errors
///
/// Fails if a requested trace or metrics file cannot be written.
pub fn run_system_obs(
    preset: &WorkloadPreset,
    system: SystemUnderTest,
    scale: &ExperimentScale,
    obs: &ObsOptions,
) -> std::io::Result<Report> {
    let mut sim = Simulator::new(tlc_config(system, scale));
    obs.attach(
        &mut sim,
        &format!("{}/{}", preset.spec.name, system.label()),
    )?;
    sim.set_spans(true);
    let trace = warm_up(&mut sim, preset, scale);
    let report = sim.run(trace.records);
    obs.finish(&sim, &report)?;
    Ok(report)
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
    fn warm_cache_keys_do_not_move_with_the_snapshot_codec() {
        // Warm keys and cell seeds hash the encoded config with FNV-1a;
        // a change to the frame hash or the FTL's table layout must not
        // move them (printed snapshot keys and cell seeds stay valid).
        let scale = ExperimentScale::smoke();
        let cfg = tlc_config(SystemUnderTest::Baseline, &scale);
        assert_eq!(warm_cache_key("hm_1", &cfg, &scale), 0xe61f_f94c_2096_d652);
    }

    #[test]
    fn smoke_run_produces_reads_and_writes() {
        let preset = paper_workload("hm_1").unwrap();
        let scale = ExperimentScale::smoke().with_requests(1_500);
        let run = run_config(
            &preset,
            tlc_config(SystemUnderTest::Baseline, &scale),
            &scale,
        );
        assert!(run.reads.count > 500);
        assert!(run.writes.count > 0);
        assert!(run.reads.mean() > 0.0);
    }

    #[test]
    fn ida_beats_baseline_on_a_read_heavy_workload() {
        let preset = paper_workload("proj_1").unwrap();
        let scale = ExperimentScale::smoke();
        let base = run_config(
            &preset,
            tlc_config(SystemUnderTest::Baseline, &scale),
            &scale,
        );
        let ida = run_config(
            &preset,
            tlc_config(SystemUnderTest::Ida { error_rate: 0.0 }, &scale),
            &scale,
        );
        let norm = normalized_read_response(&ida, &base);
        assert!(
            norm < 0.95,
            "IDA-E0 should clearly improve read response, got {norm}"
        );
        assert!(ida.breakdown.ida > 0, "IDA reads must occur");
    }

    #[test]
    fn scale_variables_parse_or_name_the_bad_value() {
        let scale = |s, r| ExperimentScale::from_vars(s, r).map(|x| x.requests);
        assert_eq!(scale(None, None), Ok(40_000));
        assert_eq!(scale(Some("smoke"), None), Ok(6_000));
        assert_eq!(scale(Some("full"), None), Ok(120_000));
        assert_eq!(scale(Some("smoke"), Some("20000")), Ok(20_000));
        assert_eq!(scale(None, Some("0")), Ok(0));
        let err = scale(Some("ful"), None).unwrap_err();
        assert!(err.starts_with("IDA_SCALE=ful: "), "{err}");
        let err = scale(Some("smoke"), Some("20k")).unwrap_err();
        assert!(
            err.starts_with("IDA_REQUESTS=20k: bad request count: "),
            "{err}"
        );
        assert!(scale(None, Some("")).is_err());
        assert!(scale(None, Some("-5")).is_err());
        assert_eq!(parse_requests("800"), Ok(800));
        assert!(parse_requests("many")
            .unwrap_err()
            .starts_with("bad request count: "));
    }
}
