//! Offered-load runs and SLO capacity search on top of `ida-host`.
//!
//! The figure sweeps replay a workload's own timestamps; this module
//! asks the production question instead: what happens when the *offered
//! rate* is a dial? A load run takes a warmed simulator, re-times the
//! measured trace through a seeded arrival process at a target IOPS, and
//! drives it through the multi-tenant host frontend — so host queueing,
//! admission control and DRR scheduling all show up in the end-to-end
//! latency the SLO is written against. A capacity run bisects that dial
//! for the highest sustainable rate at a fixed p99 read SLO.
//!
//! Determinism: the simulator seed, the arrival seeds and every probe of
//! the capacity search derive from the cell's stream seed, so a (cell,
//! scale) pair reproduces its payload byte for byte on any worker.

use crate::runner::{
    tlc_config, warm_up, warmed_simulator, ExperimentScale, ObsOptions, SystemUnderTest,
};
use ida_host::{
    capacity_search, AdmissionPolicy, ArrivalSpec, CapacityResult, FrontendConfig,
    MultiTenantSource, ProbeOutcome, TenantConfig, TenantReport,
};
use ida_obs::json::{array, JsonObj};
use ida_obs::trace::TraceEvent;
use ida_ssd::{Report, SimError, Simulator, SsdConfig};
use ida_sweep::{derive_stream_seed, WarmCache};
use ida_workloads::suite::WorkloadPreset;
use ida_workloads::synth::WorkloadSpec;
use ida_workloads::trace::Trace;

/// The offered-rate axis of the `load` grid, as a percentage of the
/// workload's nominal rate — the hockey-stick x axis.
pub const LOAD_PCTS: [u64; 5] = [60, 80, 100, 140, 200];

/// The fixed p99 read SLO of the `load` grid and the capacity search, ns.
/// 2 ms sits above the uncontended TLC read tail and below the latencies
/// a saturated queue produces, so the pass/fail boundary lands on the
/// knee of the latency-vs-load curve.
pub const LOAD_SLO_P99_NS: u64 = 2_000_000;

/// Device queue depth the host frontend drives (dispatch window).
pub const LOAD_WINDOW: usize = 64;

/// Midpoint-probe budget of the capacity bisection; over the brackets
/// the CLI uses, far more than enough to close the bracket to 1 IOPS.
pub const CAPACITY_MAX_ITERS: u32 = 16;

/// Why a load run could not produce a result — the typed replacement
/// for the `expect()` calls this module used to make on the simulator
/// and on observability I/O (mirroring `SimError::UnsortedTrace`:
/// callers decide whether an error aborts a CLI run or fails a cell).
#[derive(Debug)]
pub enum LoadError {
    /// Observability output (trace/metrics files) failed.
    Io(std::io::Error),
    /// The simulator rejected the run (e.g. the frontend stalled with
    /// nothing in flight — impossible by construction, but surfaced as
    /// an error rather than a panic if that invariant ever breaks).
    Sim(SimError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "observability output failed: {e}"),
            LoadError::Sim(e) => write!(f, "load run failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Sim(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<SimError> for LoadError {
    fn from(e: SimError) -> Self {
        LoadError::Sim(e)
    }
}

/// A load run's knobs, independent of workload and scale.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// System under test.
    pub system: SystemUnderTest,
    /// Arrival shape.
    pub arrival: ArrivalSpec,
    /// Target offered rate, IOPS (split evenly across tenants).
    pub offered_iops: u64,
    /// Number of tenant streams the measured ops are dealt across.
    pub tenants: u32,
    /// Full-queue admission policy.
    pub admission: AdmissionPolicy,
    /// Read p99 SLO target, ns.
    pub slo_p99_ns: u64,
    /// Stream seed (simulator + arrival randomness derive from it).
    pub seed: u64,
}

impl LoadSpec {
    /// A single-tenant shed-policy spec at the grid's fixed SLO.
    pub fn new(
        system: SystemUnderTest,
        arrival: ArrivalSpec,
        offered_iops: u64,
        seed: u64,
    ) -> Self {
        LoadSpec {
            system,
            arrival,
            offered_iops,
            tenants: 1,
            admission: AdmissionPolicy::Shed,
            slo_p99_ns: LOAD_SLO_P99_NS,
            seed,
        }
    }
}

/// One load run's result: the device report plus the host-side sections.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Offered rate, IOPS.
    pub offered_iops: u64,
    /// Completed rate over the measured span, IOPS.
    pub achieved_iops: f64,
    /// Device-level report (service latency, throughput, FTL stats).
    pub report: Report,
    /// Per-tenant host sections (e2e latency, admission counters).
    pub tenants: Vec<TenantReport>,
}

impl LoadRun {
    /// Worst per-tenant end-to-end read p99, ns — the SLO number.
    pub fn read_p99_ns(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.read_p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// Whether every tenant met its SLO.
    pub fn slo_met(&self) -> bool {
        self.tenants.iter().all(|t| t.slo_met)
    }

    /// Total requests shed at admission.
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.counters.shed).sum()
    }

    /// The probe verdict the capacity search consumes: the SLO held and
    /// nothing was shed (a shed request never shows up in the latency
    /// percentiles, so it must fail the probe on its own).
    pub fn probe_outcome(&self) -> ProbeOutcome {
        ProbeOutcome {
            read_p99_ns: self.read_p99_ns(),
            met: self.slo_met() && self.shed() == 0,
            shed: self.shed(),
        }
    }
}

/// A workload's nominal offered rate: the long-run IOPS of its own
/// burst-shaped timestamp generator (`LOAD_PCTS` are percentages of
/// this).
pub fn nominal_iops(spec: &WorkloadSpec) -> u64 {
    let mean_gap_ns =
        (spec.intra_gap_ns * (spec.burst_len - 1.0) + spec.burst_gap_ns) / spec.burst_len;
    ((1e9 / mean_gap_ns).round() as u64).max(1)
}

/// Deal the measured trace's op bodies across `n` tenant streams and
/// split the offered rate evenly, each tenant with its own derived
/// arrival seed.
fn tenant_configs(
    preset: &WorkloadPreset,
    ops: Vec<ida_ssd::HostOp>,
    spec: &LoadSpec,
) -> Vec<TenantConfig> {
    let n = spec.tenants.max(1) as usize;
    let mean_gap_ns = ((1e9 * n as f64 / spec.offered_iops.max(1) as f64).round() as u64).max(1);
    // A lone tenant takes the trace itself, so the run holds one copy.
    let shares: Vec<Vec<ida_ssd::HostOp>> = if n == 1 {
        vec![ops]
    } else {
        (0..n)
            .map(|i| ops.iter().skip(i).step_by(n).copied().collect())
            .collect()
    };
    shares
        .into_iter()
        .enumerate()
        .map(|(i, ops)| TenantConfig {
            name: if n == 1 {
                preset.spec.name.clone()
            } else {
                format!("{}-t{}", preset.spec.name, i)
            },
            ops,
            arrival: spec.arrival,
            mean_gap_ns,
            weight: 1,
            seed: derive_stream_seed(spec.seed, &format!("arrivals{i}")),
            slo_p99_ns: spec.slo_p99_ns,
        })
        .collect()
}

/// Run one load point: warm up a fresh simulator for (preset, system,
/// scale), seeded with `spec.seed`, with `obs` attached
/// (`ObsOptions::default()` for none), so a trace sees the warm-up too,
/// then drive the measured ops through the host frontend at the offered
/// rate (see `drive_load`).
///
/// # Errors
///
/// [`LoadError::Io`] on observability I/O (trace/metrics files);
/// [`LoadError::Sim`] if the simulator rejects the run (the frontend
/// cannot stall by construction — it only blocks with requests in
/// flight — but a broken invariant surfaces as an error, not a panic).
pub fn run_load(
    preset: &WorkloadPreset,
    spec: &LoadSpec,
    scale: &ExperimentScale,
    obs: &ObsOptions,
) -> Result<LoadRun, LoadError> {
    let mut sim = Simulator::new(load_config(spec, scale));
    obs.attach(
        &mut sim,
        &format!(
            "load {} {} {}iops",
            preset.spec.name,
            spec.system.label(),
            spec.offered_iops
        ),
    )?;
    let trace = warm_up(&mut sim, preset, scale);
    let run = drive_load(&mut sim, preset, spec, trace)?;
    obs.finish(&sim, &run.report)?;
    Ok(run)
}

/// The configuration a load run warms up under: the paper's TLC device
/// for `spec.system`, seeded with `spec.seed`.
fn load_config(spec: &LoadSpec, scale: &ExperimentScale) -> SsdConfig {
    let mut cfg = tlc_config(spec.system, scale);
    cfg.ftl.seed = spec.seed;
    cfg
}

/// The measured half of every load run, on a warmed simulator: deal the
/// measured trace across the tenants, drive it through the host
/// frontend at the offered rate, and reduce the tenants' reports. Spans
/// stay on so the attribution-conservation invariant is checkable on
/// every load trace; `SloStatus` verdicts are emitted at end of run when
/// a trace sink is attached.
pub(crate) fn drive_load(
    sim: &mut Simulator,
    preset: &WorkloadPreset,
    spec: &LoadSpec,
    trace: Trace,
) -> Result<LoadRun, LoadError> {
    let frontend_cfg = FrontendConfig {
        window: LOAD_WINDOW,
        admission: spec.admission,
        ..FrontendConfig::default()
    };
    let tenant_cfgs = tenant_configs(preset, trace.records, spec);
    let mut src = MultiTenantSource::new(tenant_cfgs, frontend_cfg);
    src.bind_trace(sim.trace_handle(), sim.now());
    sim.set_spans(true);
    let report = sim.run_source(&mut src)?;
    let tenants = src.tenant_reports();
    let handle = sim.trace_handle();
    let end = sim.now();
    for (i, t) in tenants.iter().enumerate() {
        let (p99, target, met) = (t.read_p99_ns, t.slo_p99_ns, t.slo_met);
        handle.emit_with(|| TraceEvent::SloStatus {
            t: end,
            tenant: i as u64,
            p99_ns: p99,
            target_ns: target,
            met,
        });
    }
    let completed: u64 = tenants.iter().map(|t| t.counters.completed).sum();
    let span = report
        .last_completion
        .saturating_sub(report.first_arrival)
        .max(1);
    Ok(LoadRun {
        offered_iops: spec.offered_iops,
        achieved_iops: completed as f64 * 1e9 / span as f64,
        report,
        tenants,
    })
}

/// The deterministic metrics payload of one load cell: host-side SLO
/// fields at the top level (worst tenant), the per-tenant sections, and
/// the device report alongside.
pub fn load_metrics_json(run: &LoadRun) -> String {
    let offered: u64 = run.tenants.iter().map(|t| t.counters.offered).sum();
    let dispatched: u64 = run.tenants.iter().map(|t| t.counters.dispatched).sum();
    let completed: u64 = run.tenants.iter().map(|t| t.counters.completed).sum();
    let delayed: u64 = run.tenants.iter().map(|t| t.counters.delayed).sum();
    let slo_target = run.tenants.iter().map(|t| t.slo_p99_ns).max().unwrap_or(0);
    JsonObj::new()
        .u64("offered_iops", run.offered_iops)
        .f64("achieved_iops", run.achieved_iops)
        .u64("offered", offered)
        .u64("dispatched", dispatched)
        .u64("completed", completed)
        .u64("shed", run.shed())
        .u64("delayed", delayed)
        .u64("read_p99_ns", run.read_p99_ns())
        .u64("slo_p99_ns", slo_target)
        .bool("slo_met", run.slo_met())
        .raw("tenants", &array(run.tenants.iter().map(|t| t.to_json())))
        .raw("device", &crate::sweep::metrics_json(&run.report))
        .finish()
}

/// Bisect the offered rate of `spec` on `preset` over `[lo_iops,
/// hi_iops]` for the highest rate that meets `spec.slo_p99_ns`. Every
/// probe runs [`run_load`] on `spec` at its own offered rate (the spec's
/// is ignored) with a seed derived from `spec.seed`; the warm-up depends
/// on neither, so the search warms one device and forks it for each probe
/// through a cache of its own. The whole search is a pure function of its
/// arguments.
///
/// # Errors
///
/// The first probe failure aborts the search: a probe that cannot run is
/// not a missed SLO, so treating it as one would silently bias the
/// bracket downward.
pub fn run_capacity(
    preset: &WorkloadPreset,
    spec: &LoadSpec,
    scale: &ExperimentScale,
    lo_iops: u64,
    hi_iops: u64,
    max_iters: u32,
) -> Result<CapacityResult, LoadError> {
    let mut failure: Option<LoadError> = None;
    let warm = WarmCache::new();
    let seed = derive_stream_seed(spec.seed, "probe");
    let result = capacity_search(lo_iops, hi_iops, max_iters, |iops| {
        let spec = LoadSpec {
            offered_iops: iops,
            seed,
            ..spec.clone()
        };
        let cfg = load_config(&spec, scale);
        let (mut sim, trace) = warmed_simulator(preset, cfg, scale, Some(&warm));
        match drive_load(&mut sim, preset, &spec, trace) {
            Ok(run) => run.probe_outcome(),
            Err(e) => {
                if failure.is_none() {
                    failure = Some(e);
                }
                // Placeholder verdict; the stashed error aborts below.
                ProbeOutcome {
                    read_p99_ns: u64::MAX,
                    met: false,
                    shed: 0,
                }
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ida_workloads::suite::paper_workload;

    #[test]
    fn nominal_rate_matches_the_generator_shape() {
        // prn0: 2 ms between 16-op bursts with 20 µs intra gaps —
        // mean gap (20us*15 + 2ms)/16 = 143.75 µs ⇒ ~6956 IOPS.
        let spec = WorkloadSpec::default();
        let n = nominal_iops(&spec);
        assert!(
            (6_900..=7_000).contains(&n),
            "nominal IOPS {n} off the generator shape"
        );
    }

    #[test]
    fn tenants_deal_the_ops_and_split_the_rate() {
        let preset = paper_workload("proj_3").expect("known workload");
        let ops: Vec<ida_ssd::HostOp> = (0..10)
            .map(|i| ida_ssd::HostOp {
                at: 0,
                kind: ida_ssd::HostOpKind::Read,
                lpn: i,
                pages: 1,
            })
            .collect();
        let mut spec = LoadSpec::new(SystemUnderTest::Baseline, ArrivalSpec::Poisson, 10_000, 1);
        spec.tenants = 3;
        let ts = tenant_configs(&preset, ops, &spec);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.iter().map(|t| t.ops.len()).sum::<usize>(), 10);
        assert_eq!(ts[0].ops[1].lpn, 3, "round-robin deal");
        // Per-tenant gap is 3x the single-stream gap (rate split evenly).
        assert_eq!(ts[0].mean_gap_ns, 300_000);
        // Seeds differ per tenant but derive deterministically.
        assert_ne!(ts[0].seed, ts[1].seed);
        let again = tenant_configs(
            &preset,
            ts.iter().flat_map(|t| t.ops.clone()).collect(),
            &spec,
        );
        assert_eq!(again[1].seed, ts[1].seed);
    }

    #[test]
    fn a_small_load_run_completes_and_reports_slo_fields() {
        let preset = paper_workload("proj_3").expect("known workload");
        let scale = ExperimentScale::smoke().with_requests(120);
        let spec = LoadSpec::new(
            SystemUnderTest::Baseline,
            ArrivalSpec::Poisson,
            2_000,
            derive_stream_seed(7, "load-test"),
        );
        let run = run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run");
        let completed: u64 = run.tenants.iter().map(|t| t.counters.completed).sum();
        assert_eq!(completed, 120, "every op must complete");
        assert!(run.achieved_iops > 0.0);
        let json = load_metrics_json(&run);
        for key in [
            "\"offered_iops\":2000",
            "\"shed\":",
            "\"slo_p99_ns\":",
            "\"slo_met\":",
            "\"tenants\":[",
            "\"device\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn load_runs_are_deterministic() {
        let preset = paper_workload("proj_3").expect("known workload");
        let scale = ExperimentScale::smoke().with_requests(80);
        let spec = LoadSpec::new(
            SystemUnderTest::Ida { error_rate: 0.2 },
            ArrivalSpec::OnOff,
            3_000,
            11,
        );
        let a = load_metrics_json(
            &run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run"),
        );
        let b = load_metrics_json(
            &run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run"),
        );
        assert_eq!(a, b);
    }
}
