//! The four workloads: what one pass runs, what it times, and what it
//! checks.
//!
//! Every timed region is a call into a public function of the
//! repository's crates, made from here. A plain pass times the calls a
//! user makes (`run_grid`, or construct → warm-up → replay); a traced pass
//! re-composes those calls from smaller public ones and records a span
//! around each, and its simulated outputs must match the plain pass byte
//! for byte — otherwise the re-composition has gone stale.

use crate::metrics::{PassResult, Workload};
use crate::span::{self, Span, Tracer};
use crate::stats;
use ida_bench::load::{load_metrics_json, nominal_iops, LoadRun, LOAD_SLO_P99_NS, LOAD_WINDOW};
use ida_bench::runner::{
    system_config, to_host_ops, warm_cache_key, warm_up, ExperimentScale, SystemUnderTest,
};
use ida_bench::sweep::{
    builtin_grid, metric, metrics_json, parse_system, run_grid, warm_seed_for,
    FAULT_SPARES_PER_PLANE,
};
use ida_faults::FaultConfig;
use ida_flash::timing::{FlashTiming, SimTime};
use ida_ftl::FtlStats;
use ida_host::{
    AdmissionPolicy, ArrivalSpec, FrontendConfig, MultiTenantSource, TenantConfig, TenantCounters,
};
use ida_ssd::retry::RetryConfig;
use ida_ssd::{ArrivalSource, HostOp, HostOpKind, Pull, Report, Simulator, SsdConfig};
use ida_sweep::jsonv;
use ida_sweep::{derive_stream_seed, Cell, SweepConfig, SweepOutcome, SweepSpec, WarmCache};
use ida_workloads::suite::{paper_workload, WorkloadPreset};
use ida_workloads::trace::Trace;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The two systems `replay_read` and `load_write` compare.
const SYSTEMS: [SystemUnderTest; 2] = [
    SystemUnderTest::Baseline,
    SystemUnderTest::Ida { error_rate: 0.2 },
];

/// The paper's Figure 8 averages: (adjustment error rate, normalized
/// read response time).
const PAPER_FIG8: [(f64, f64); 4] = [(0.0, 0.69), (0.2, 0.72), (0.5, 0.798), (0.8, 0.93)];

/// The share by which the traced layer self times may miss the traced
/// wall time before the split counts as broken.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// How much work one pass does.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Paper workloads per grid: the first N of Table III's 11.
    pub grid_workloads: usize,
    /// Measured requests per grid cell.
    pub grid_requests: usize,
    /// Measured requests per system in `replay_read`.
    pub replay_requests: usize,
    /// Measured requests per system in `load_write`.
    pub load_requests: usize,
    /// Set-ups per grid pass; the pass reports their median.
    pub setup_repeats: usize,
}

impl Sizes {
    /// The sizes the command line runs.
    pub fn full() -> Self {
        Sizes {
            grid_workloads: 11,
            grid_requests: ExperimentScale::smoke().requests,
            replay_requests: 2_000_000,
            load_requests: 800_000,
            setup_repeats: 5,
        }
    }
}

/// Work counts gathered while a pass runs; a traced pass turns them into
/// per-layer metrics.
#[derive(Debug, Clone, Default)]
struct Facts {
    warm_writes: u64,
    events: u64,
    flash_ops: u64,
    window_host_writes: u64,
    window_moves: u64,
    gc_runs: u64,
    gc_copies: u64,
    erases: u64,
    refreshes: u64,
    ida_conversions: u64,
    voltage_adjusts: u64,
    injected: u64,
    recoveries: u64,
    host_pulls: u64,
    host_delayed: u64,
    host_shed: u64,
    /// Sizes of the warm images the sweep cache captured.
    cache_images: Vec<u64>,
    /// Sizes of the images the span probe captured.
    images: Vec<u64>,
}

impl Facts {
    /// Fold in one measured run: window deltas for GC and writes,
    /// cumulative counts for refresh work and faults.
    fn observe(&mut self, before: &FtlStats, report: &Report) {
        let a = &report.ftl;
        self.events += report.events_processed;
        self.flash_ops += report.flash_ops;
        self.window_host_writes += a.host_writes - before.host_writes;
        self.window_moves +=
            (a.gc_copies - before.gc_copies) + (a.refresh_moves - before.refresh_moves);
        self.gc_runs += a.gc_runs - before.gc_runs;
        self.gc_copies += a.gc_copies - before.gc_copies;
        self.erases += a.erases - before.erases;
        self.refreshes += a.refreshes;
        self.ida_conversions += a.ida_conversions;
        self.voltage_adjusts += a.voltage_adjusts;
        self.injected +=
            a.injected_program_fails + a.injected_erase_fails + a.transient_read_faults;
        self.recoveries += a.recoveries;
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Cells run under catch_unwind; a panicking cell leaves the counts
    // it already added, which is what a failed cell did.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` inside a span when tracing, directly otherwise.
fn span<T>(tr: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Whether a report's read attribution partitions the read response time
/// exactly (the span conservation invariant).
fn conserved(report: &Report) -> bool {
    report.read_attribution.grand_total() == report.reads.total_ns
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `runner::warm_up`, re-composed from the public calls it makes, with a
/// span around each: trace generation (`workloads`), the untimed write
/// path (`ftl`) and the steady-state refresh (`core`).
fn traced_warm_up(
    sim: &mut Simulator,
    preset: &WorkloadPreset,
    scale: &ExperimentScale,
    tr: &Tracer,
) -> Trace {
    let exported = sim.ftl().exported_pages();
    let footprint = ((exported as f64 * preset.footprint_frac) as u64).max(1_000);
    tr.span("ftl.warm_write", || sim.prefill(0..footprint));
    let aging = to_host_ops(&tr.span("workloads.gen", || preset.aging_trace(footprint)));
    tr.span("ftl.warm_write", || sim.age(&aging));
    let trace = tr.span("workloads.gen", || {
        preset.generate(footprint, scale.requests)
    });
    let span = trace.span().max(1);
    let period = (span as f64 * scale.refresh_period_frac) as SimTime;
    sim.set_refresh_period(period.max(1));
    tr.span("core.refresh", || sim.force_refresh_all(span / 2));
    let reage1 = to_host_ops(&tr.span("workloads.gen", || preset.reage_trace(footprint)));
    tr.span("ftl.warm_write", || sim.age(&reage1));
    tr.span("core.refresh", || sim.force_refresh_all(span / 2));
    let reage2 = to_host_ops(&tr.span("workloads.gen", || preset.reage_trace2(footprint)));
    tr.span("ftl.warm_write", || sim.age(&reage2));
    trace
}

/// Construct and warm up one simulator, returning it with the measured
/// trace: `Simulator::new` + `runner::warm_up` plainly, or their traced
/// re-composition under a `bench.warm_up` span.
fn warmed(
    preset: &WorkloadPreset,
    cfg: SsdConfig,
    scale: &ExperimentScale,
    tr: Option<&Tracer>,
    facts: &Mutex<Facts>,
) -> (Simulator, Trace) {
    let Some(tr) = tr else {
        let mut sim = Simulator::new(cfg);
        let trace = warm_up(&mut sim, preset, scale);
        return (sim, trace);
    };
    tr.span("bench.warm_up", || {
        let mut sim = tr.span("ssd.construct", || Simulator::new(cfg));
        let before = sim.ftl().stats().host_writes;
        let trace = traced_warm_up(&mut sim, preset, scale, tr);
        lock(facts).warm_writes += sim.ftl().stats().host_writes - before;
        (sim, trace)
    })
}

/// The grid behind a grid workload, cut to `sizes` and seeded with
/// `seed` (the `SweepSpec` base seed).
///
/// # Panics
///
/// On a workload that is not a grid.
pub fn grid_spec(workload: Workload, seed: u64, sizes: &Sizes) -> SweepSpec {
    let name = match workload {
        Workload::Fig8Grid => "fig8",
        Workload::FaultsGrid => "faults",
        other => panic!("{} is not a grid workload", other.name()),
    };
    let mut spec = builtin_grid(name).expect("built-in grid");
    spec.workloads.truncate(sizes.grid_workloads);
    spec.base_seed = seed;
    spec
}

/// The preset, configuration and fault plan `run_cell_cached` derives
/// for a fig8 or faults cell.
fn cell_config(
    cell: &Cell,
    scale: &ExperimentScale,
) -> (WorkloadPreset, SsdConfig, Option<FaultConfig>) {
    if let Some((axis, _)) = cell.params.iter().find(|(k, _)| k != "faults") {
        panic!("traced cells cover the fig8 and faults grids only, not axis {axis:?}");
    }
    let preset = paper_workload(&cell.workload)
        .unwrap_or_else(|| panic!("unknown workload {}", cell.workload));
    let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
    let faults = cell.param("faults").map(|level| {
        FaultConfig::preset(level, derive_stream_seed(cell.stream_seed, "faults"))
            .unwrap_or_else(|| panic!("unknown fault level {level:?}"))
    });
    let mut cfg = paper_config(system, scale);
    cfg.ftl.seed = warm_seed_for(cell);
    if faults.is_some() {
        cfg.ftl.spare_blocks_per_plane = FAULT_SPARES_PER_PLANE;
    }
    (preset, cfg, faults)
}

/// A warm image and the measured ops of one grid cell, kept for the span
/// probe.
struct Probe {
    image: Arc<Vec<u8>>,
    ops: Vec<HostOp>,
}

/// One cell of a traced grid: `run_cell_cached` for fig8/faults cells,
/// re-composed from public calls.
fn traced_cell(
    cell: &Cell,
    scale: &ExperimentScale,
    warm: Option<&WarmCache>,
    tr: &Tracer,
    facts: &Mutex<Facts>,
    probe: &Mutex<Option<Probe>>,
) -> String {
    tr.span("bench.cell", || {
        let (preset, cfg, faults) = cell_config(cell, scale);
        let (mut sim, trace, image) = match warm {
            None => {
                let (sim, trace) = warmed(&preset, cfg, scale, Some(tr), facts);
                (sim, trace, None)
            }
            Some(cache) => {
                let key = warm_cache_key(&preset.spec.name, &cfg, scale);
                let mut live = None;
                let image = tr.span("sweep.warm_get", || {
                    cache.get_or_build(key, || {
                        let (sim, _) = warmed(&preset, cfg.clone(), scale, Some(tr), facts);
                        let bytes = tr.span("snap.capture", || sim.snapshot());
                        lock(facts).cache_images.push(bytes.len() as u64);
                        live = Some(sim);
                        bytes
                    })
                });
                let sim = live.unwrap_or_else(|| {
                    tr.span("snap.restore", || {
                        Simulator::from_snapshot(&image).unwrap_or_else(|e| {
                            panic!("warm snapshot for key {key:016x} failed to restore: {e}")
                        })
                    })
                });
                let footprint =
                    ((cfg.ftl.exported_pages() as f64 * preset.footprint_frac) as u64).max(1_000);
                let trace = tr.span("workloads.gen", || {
                    preset.generate(footprint, scale.requests)
                });
                (sim, trace, Some(image))
            }
        };
        if let Some(faults) = faults {
            sim.arm_faults(faults);
        }
        sim.set_spans(true);
        let ops = to_host_ops(&trace);
        if let (0, Some(image)) = (cell.index, image) {
            *lock(probe) = Some(Probe {
                image,
                ops: ops.clone(),
            });
        }
        let before = *sim.ftl().stats();
        let report = tr.span("ssd.replay", || sim.run(ops));
        lock(facts).observe(&before, &report);
        tr.span("bench.metrics", || metrics_json(&report))
    })
}

/// A traced grid's outcome and what its cells counted.
struct TracedGrid {
    outcome: SweepOutcome,
    facts: Facts,
    probe: Option<Probe>,
}

fn run_traced_grid(
    spec: &SweepSpec,
    scale: &ExperimentScale,
    cfg: &SweepConfig,
    tr: &Tracer,
) -> TracedGrid {
    let cells = spec.cells();
    let facts = Mutex::new(Facts::default());
    let probe = Mutex::new(None);
    let outcomes = tr
        .span("sweep.run_cells", || {
            ida_sweep::run_cells(&spec.name, &cells, cfg, |cell| {
                traced_cell(cell, scale, cfg.warm_cache(), tr, &facts, &probe)
            })
        })
        .expect("a sweep without a journal does no I/O");
    TracedGrid {
        outcome: SweepOutcome {
            sweep: spec.name.clone(),
            outcomes,
        },
        facts: facts.into_inner().unwrap_or_else(|e| e.into_inner()),
        probe: probe.into_inner().unwrap_or_else(|e| e.into_inner()),
    }
}

/// Run a fig8- or faults-shaped grid through `ida_sweep::run_cells` with
/// a closure that re-composes `ida_bench::sweep::run_cell_cached` from
/// public calls, spans around each. The outcome must equal `run_grid`'s
/// for the same spec, scale and configuration.
pub fn traced_grid(
    spec: &SweepSpec,
    scale: &ExperimentScale,
    cfg: &SweepConfig,
    tr: &Tracer,
) -> SweepOutcome {
    run_traced_grid(spec, scale, cfg, tr).outcome
}

/// The fig8 grid's distance from the paper: the mean, over the error
/// rates the paper reports, of |measured − paper| for the average
/// IDA/Baseline read-response ratio. `None` if a needed cell is missing.
fn paper_err(outcome: &SweepOutcome, workloads: &[String]) -> Option<f64> {
    let mut err = 0.0;
    for (rate, paper) in PAPER_FIG8 {
        let ida = SystemUnderTest::Ida { error_rate: rate }.label();
        let mut sum = 0.0;
        for w in workloads {
            let base = metric(outcome, w, "Baseline", &[], "mean_read_ns")?;
            sum += metric(outcome, w, &ida, &[], "mean_read_ns")? / base;
        }
        err += (sum / workloads.len() as f64 - paper).abs();
    }
    Some(err / PAPER_FIG8.len() as f64)
}

/// The checks every grid pass runs on its outcome.
fn grid_checks(res: &mut PassResult, outcome: &SweepOutcome) {
    res.check(
        "cells_ok",
        outcome.failed_count() == 0,
        format!(
            "{} of {} cells failed",
            outcome.failed_count(),
            outcome.outcomes.len()
        ),
    );
    let payloads: Vec<(&Cell, jsonv::JsonValue)> = outcome
        .outcomes
        .iter()
        .filter_map(|o| Some((&o.cell, jsonv::parse(o.payload()?).ok()?)))
        .collect();
    let num = |v: &jsonv::JsonValue, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(|x| x.as_f64())
            .unwrap_or(f64::NAN)
    };
    // The payload carries the read attribution's grand total and the
    // mean read response; their product with the read count must agree.
    let unconserved = payloads
        .iter()
        .filter(|(_, v)| {
            let total = num(v, &["attribution", "reads", "total_ns"]);
            let mean_sum = num(v, &["mean_read_ns"]) * num(v, &["reads"]);
            // NaN (a missing field) counts as unconserved.
            (total - mean_sum)
                .abs()
                .partial_cmp(&(1e-9 * total.max(1.0)))
                != Some(std::cmp::Ordering::Less)
        })
        .count();
    res.check(
        "span_conservation",
        unconserved == 0,
        format!("{unconserved} cells whose read attribution misses the read response total"),
    );
    if res.workload != Workload::FaultsGrid {
        return;
    }
    let level = |c: &Cell| c.param("faults").unwrap_or("").to_string();
    let off_dirty = payloads
        .iter()
        .filter(|(c, v)| level(c) == "off" && num(v, &["injected_faults"]) != 0.0)
        .count();
    res.check(
        "faults_off_clean",
        off_dirty == 0,
        format!("{off_dirty} off cells injected faults"),
    );
    for hot in ["low", "mid", "high"] {
        let injected: f64 = payloads
            .iter()
            .filter(|(c, _)| level(c) == hot)
            .map(|(_, v)| num(v, &["injected_faults"]))
            .sum();
        res.check(
            &format!("faults_{hot}_injected"),
            injected > 0.0,
            format!("{injected} faults injected at level {hot}"),
        );
    }
    let unrecovered = payloads
        .iter()
        .filter(|(_, v)| num(v, &["recoveries"]) != num(v, &["power_losses"]))
        .count();
    res.check(
        "recoveries_match_power_losses",
        unrecovered == 0,
        format!("{unrecovered} cells with recoveries != power_losses"),
    );
}

/// Build and warm the grid's first cell, untimed by the grid: the
/// pass's set-up, which also lets the allocator and page tables settle
/// before the timed `run_grid` call.
fn prime_grid(spec: &SweepSpec, scale: &ExperimentScale) -> Duration {
    let cell = spec.cells().into_iter().next().expect("a grid has cells");
    let (preset, cfg, _) = cell_config(&cell, scale);
    let start = Instant::now();
    let mut sim = Simulator::new(cfg);
    let trace = warm_up(&mut sim, &preset, scale);
    black_box(to_host_ops(&trace));
    black_box(&sim);
    start.elapsed()
}

/// What a pass hands to the traced-pass epilogue.
struct PassOutput {
    res: PassResult,
    facts: Facts,
    warm: Option<ida_sweep::WarmStats>,
    obs_span_ms: f64,
}

fn grid_pass(w: Workload, seed: u64, sizes: &Sizes, tr: Option<&Tracer>) -> PassOutput {
    let spec = grid_spec(w, seed, sizes);
    let scale = ExperimentScale::smoke().with_requests(sizes.grid_requests);
    let cfg = SweepConfig::serial().with_warm_cache();
    let setups: Vec<f64> = (0..sizes.setup_repeats.max(1))
        .map(|_| prime_grid(&spec, &scale).as_secs_f64())
        .collect();
    let start = Instant::now();
    let (grid, wall, aggregate) = match tr {
        None => {
            let outcome =
                run_grid(&spec, &scale, &cfg).expect("a sweep without a journal does no I/O");
            let wall = start.elapsed();
            let aggregate = outcome.aggregate_json();
            let grid = TracedGrid {
                outcome,
                facts: Facts::default(),
                probe: None,
            };
            (grid, wall, aggregate)
        }
        Some(tr) => {
            let (grid, aggregate) = tr.span("sweep.grid", || {
                let grid = run_traced_grid(&spec, &scale, &cfg, tr);
                let aggregate = tr.span("sweep.aggregate", || grid.outcome.aggregate_json());
                (grid, aggregate)
            });
            (grid, start.elapsed(), aggregate)
        }
    };
    let TracedGrid {
        outcome,
        facts,
        probe,
    } = grid;
    let cells = outcome.outcomes.len() as f64;
    let mut res = PassResult::new(w, seed, tr.is_some());
    res.ops = outcome.outcomes.len() as u64;
    res.ops_failed = outcome.failed_count() as u64;
    res.digest = ida_snap::fnv1a(aggregate.as_bytes());
    res.set("wall_s", wall.as_secs_f64());
    res.set("setup_s", stats::median(&setups));
    res.set("cells_per_s", cells / wall.as_secs_f64());
    res.set("ops_per_s", cells / wall.as_secs_f64());
    if w == Workload::Fig8Grid {
        if let Some(err) = paper_err(&outcome, &spec.workloads) {
            res.set("paper_err", err);
        }
    }
    grid_checks(&mut res, &outcome);
    let obs_span_ms = match (tr, probe) {
        (Some(tr), Some(p)) => span_probe(
            tr,
            5,
            || (p.image, p.ops),
            |sim, ops| drop(sim.run(ops.clone())),
        ),
        _ => f64::NAN,
    };
    PassOutput {
        res,
        facts,
        warm: cfg.warm_cache().map(WarmCache::stats),
        obs_span_ms,
    }
}

/// Estimate what attribution spans cost the event loop: replay one
/// forked warm state with spans off and on, `reps` times each, and
/// return the difference of the median replay times, ms. Work `replay`
/// does besides simulating (copying its input) is the same with spans on
/// and off, so it cancels.
fn span_probe<R>(
    tr: &Tracer,
    reps: usize,
    setup: impl FnOnce() -> (Arc<Vec<u8>>, R),
    replay: impl Fn(&mut Simulator, &R),
) -> f64 {
    tr.span("obs.probe", || {
        let (image, input) = setup();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for spans_on in [false, true] {
                let mut sim = tr.span("snap.restore", || {
                    Simulator::from_snapshot(&image).expect("a fresh warm image restores")
                });
                sim.set_spans(spans_on);
                let name = if spans_on {
                    "obs.replay_on"
                } else {
                    "obs.replay_off"
                };
                let start = Instant::now();
                tr.span(name, || replay(&mut sim, &input));
                let took = ms(start.elapsed());
                if spans_on {
                    on.push(took);
                } else {
                    off.push(took);
                }
            }
        }
        stats::median(&on) - stats::median(&off)
    })
}

fn paper_config(system: SystemUnderTest, scale: &ExperimentScale) -> SsdConfig {
    system_config(
        system,
        scale.geometry,
        FlashTiming::paper_tlc(),
        RetryConfig::disabled(),
    )
}

/// The hm_1-shaped preset of `replay_read`, its trace seeded from `seed`.
fn replay_preset(seed: u64) -> WorkloadPreset {
    let mut preset = paper_workload("hm_1").expect("hm_1 is a paper workload");
    preset.spec.seed = derive_stream_seed(seed, "replay_read");
    preset
}

/// The src1_0-shaped preset of `load_write`, its trace seeded from `seed`.
fn load_preset(seed: u64) -> WorkloadPreset {
    let mut preset = paper_workload("src1_0").expect("src1_0 is a paper workload");
    preset.spec.seed = derive_stream_seed(seed, "load_write");
    preset
}

/// Tenants of `load_write`.
const LOAD_TENANTS: usize = 3;

/// The tenant streams of `load_write`: the measured ops dealt round-robin
/// to [`LOAD_TENANTS`] tenants, the offered rate split evenly, Poisson
/// arrivals seeded per tenant from `seed`. Takes the ops by value, as
/// `bench::load` does, so they are freed before the frontend is built.
fn load_tenants(name: &str, ops: Vec<HostOp>, offered_iops: u64, seed: u64) -> Vec<TenantConfig> {
    let mean_gap_ns = ((1e9 * LOAD_TENANTS as f64 / offered_iops as f64).round() as u64).max(1);
    (0..LOAD_TENANTS)
        .map(|i| TenantConfig {
            name: format!("{name}-t{i}"),
            ops: ops.iter().skip(i).step_by(LOAD_TENANTS).copied().collect(),
            arrival: ArrivalSpec::Poisson,
            mean_gap_ns,
            weight: 1,
            seed: derive_stream_seed(seed, &format!("arrivals{i}")),
            slo_p99_ns: LOAD_SLO_P99_NS,
        })
        .collect()
}

/// The host frontend of `load_write`: delay admission, window 64.
fn load_frontend() -> FrontendConfig {
    FrontendConfig {
        window: LOAD_WINDOW,
        admission: AdmissionPolicy::Delay,
        ..FrontendConfig::default()
    }
}

/// An [`ArrivalSource`] that times every call into the source it wraps.
struct TimedSource<'a, S: ArrivalSource> {
    inner: &'a mut S,
    /// Wall time spent inside the wrapped source, ns.
    ns: u64,
    /// Calls to `next`.
    pulls: u64,
}

impl<'a, S: ArrivalSource> TimedSource<'a, S> {
    /// Wrap `inner`.
    fn new(inner: &'a mut S) -> Self {
        TimedSource {
            inner,
            ns: 0,
            pulls: 0,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<'_, S> {
    fn next(&mut self, now: SimTime) -> Pull {
        let t = Instant::now();
        let pull = self.inner.next(now);
        self.ns += t.elapsed().as_nanos() as u64;
        self.pulls += 1;
        pull
    }

    fn on_complete(&mut self, now: SimTime, token: u64, kind: HostOpKind, latency_ns: SimTime) {
        let t = Instant::now();
        self.inner.on_complete(now, token, kind, latency_ns);
        self.ns += t.elapsed().as_nanos() as u64;
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

/// Drive `source` to completion, timing the frontend when traced.
fn run_load(
    sim: &mut Simulator,
    source: &mut MultiTenantSource,
    tr: Option<&Tracer>,
    facts: &Mutex<Facts>,
) -> Report {
    let report = match tr {
        None => sim.run_source(source),
        Some(tr) => {
            let mut timed = TimedSource::new(source);
            let report = sim.run_source(&mut timed);
            tr.record_aggregate("host.source", timed.ns);
            lock(facts).host_pulls += timed.pulls;
            report
        }
    };
    report.unwrap_or_else(|e| panic!("load run failed: {e}"))
}

/// `replay_read` or `load_write`: for each system, set up (construct,
/// warm up, convert the trace) and then measure — an open-loop replay at
/// the trace timestamps, or the load through the host frontend.
fn systems_pass(w: Workload, seed: u64, sizes: &Sizes, tr: Option<&Tracer>) -> PassOutput {
    let load = w == Workload::LoadWrite;
    let (preset, requests) = if load {
        (load_preset(seed), sizes.load_requests)
    } else {
        (replay_preset(seed), sizes.replay_requests)
    };
    let scale = ExperimentScale::smoke().with_requests(requests);
    let offered = nominal_iops(&preset.spec);
    let name = preset.spec.name.clone();
    let facts = Mutex::new(Facts::default());
    let mut res = PassResult::new(w, seed, tr.is_some());
    let (mut setup, mut measure) = (Duration::ZERO, Duration::ZERO);
    let (mut events, mut shed, mut unconserved) = (0, 0, 0);
    let mut payloads = String::new();
    let start = Instant::now();
    span(tr, "bench.pass", || {
        for system in SYSTEMS {
            let t = Instant::now();
            let (mut sim, trace) =
                warmed(&preset, paper_config(system, &scale), &scale, tr, &facts);
            let ops = to_host_ops(&trace);
            let (ops, mut source) = if load {
                let tenants = load_tenants(&name, ops, offered, seed);
                (
                    Vec::new(),
                    Some(MultiTenantSource::new(tenants, load_frontend())),
                )
            } else {
                (ops, None)
            };
            setup += t.elapsed();
            sim.set_spans(true);
            let before = *sim.ftl().stats();
            let t = Instant::now();
            let report = span(tr, "ssd.replay", || match source.as_mut() {
                None => sim.run(ops),
                Some(source) => run_load(&mut sim, source, tr, &facts),
            });
            measure += t.elapsed();
            lock(&facts).observe(&before, &report);
            events += report.events_processed;
            unconserved += u64::from(!conserved(&report));
            let (completed, payload) = match source {
                None => (
                    report.reads.count + report.writes.count,
                    metrics_json(&report),
                ),
                Some(source) => {
                    let tenants = source.tenant_reports();
                    let sum = |f: fn(&TenantCounters) -> u64| {
                        tenants.iter().map(|t| f(&t.counters)).sum::<u64>()
                    };
                    let completed = sum(|c| c.completed);
                    shed += sum(|c| c.shed);
                    lock(&facts).host_delayed += sum(|c| c.delayed);
                    let span_ns = report.duration_ns().max(1);
                    let run = LoadRun {
                        offered_iops: offered,
                        achieved_iops: completed as f64 * 1e9 / span_ns as f64,
                        report,
                        tenants,
                    };
                    (completed, load_metrics_json(&run))
                }
            };
            res.ops += requests as u64;
            res.ops_failed += (requests as u64).saturating_sub(completed);
            payloads.push_str(&payload);
            payloads.push('\n');
        }
    });
    let wall = start.elapsed();
    lock(&facts).host_shed = shed;
    res.digest = ida_snap::fnv1a(payloads.as_bytes());
    res.set("wall_s", wall.as_secs_f64());
    res.set("setup_s", setup.as_secs_f64());
    res.set("ops_per_s", res.ops as f64 / measure.as_secs_f64());
    res.set("sim_events_per_s", events as f64 / measure.as_secs_f64());
    res.check(
        "requests_complete",
        res.ops_failed == 0 && shed == 0,
        format!(
            "{} of {} requests not completed, {shed} shed",
            res.ops_failed, res.ops
        ),
    );
    res.check(
        "span_conservation",
        unconserved == 0,
        format!("{unconserved} runs whose read attribution misses the read response total"),
    );
    let obs_span_ms = tr.map_or(f64::NAN, |tr| {
        let setup = || {
            let cfg = paper_config(SystemUnderTest::Baseline, &scale);
            let (sim, trace) = tr.span("obs.probe_setup", || {
                warmed(&preset, cfg, &scale, None, &facts)
            });
            let image = tr.span("snap.capture", || sim.snapshot());
            lock(&facts).images.push(image.len() as u64);
            (Arc::new(image), to_host_ops(&trace))
        };
        span_probe(tr, 3, setup, |sim, ops: &Vec<HostOp>| {
            if load {
                let tenants = load_tenants(&name, ops.clone(), offered, seed);
                let mut source = MultiTenantSource::new(tenants, load_frontend());
                run_load(sim, &mut source, None, &facts);
            } else {
                drop(sim.run(ops.clone()));
            }
        })
    });
    PassOutput {
        res,
        facts: facts.into_inner().unwrap_or_else(|e| e.into_inner()),
        warm: None,
        obs_span_ms,
    }
}

/// Turn a traced pass's spans and counts into per-layer metrics, and
/// check that the layer self times add up to the traced wall time.
fn layer_metrics(out: &mut PassOutput, spans: &[Span]) {
    let res = &mut out.res;
    let f = &out.facts;
    let by_name = span::name_self_ns(spans);
    let self_ms = |n: &str| by_name.get(n).copied().unwrap_or(0) as f64 / 1e6;
    let warm_up_ms: u64 = spans
        .iter()
        .filter(|s| s.name == "bench.warm_up")
        .map(Span::duration_ns)
        .sum();
    res.set("bench.warm_up_ms", warm_up_ms as f64 / 1e6);
    for name in [
        "ssd.construct",
        "workloads.gen",
        "ftl.warm_write",
        "core.refresh",
        "ssd.replay",
        "snap.capture",
        "snap.restore",
    ] {
        res.set(&format!("{name}_ms"), self_ms(name));
    }
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    res.set("ftl.warm_writes", f.warm_writes as f64);
    res.set(
        "ftl.warm_write_ns",
        ratio(self_ms("ftl.warm_write") * 1e6, f.warm_writes),
    );
    res.set("core.refreshes", f.refreshes as f64);
    res.set("core.ida_conversions", f.ida_conversions as f64);
    res.set("core.voltage_adjusts", f.voltage_adjusts as f64);
    res.set("ssd.events", f.events as f64);
    res.set("ssd.flash_ops", f.flash_ops as f64);
    res.set(
        "ssd.ns_per_event",
        ratio(self_ms("ssd.replay") * 1e6, f.events),
    );
    res.set("obs.span_ms", out.obs_span_ms);
    res.set("host.pulls", f.host_pulls as f64);
    res.set("host.delayed", f.host_delayed as f64);
    res.set("host.shed", f.host_shed as f64);
    res.set("ftl.gc_runs", f.gc_runs as f64);
    res.set("ftl.gc_copies", f.gc_copies as f64);
    res.set("ftl.erases", f.erases as f64);
    res.set(
        "ftl.write_amp",
        ratio(
            (f.window_host_writes + f.window_moves) as f64,
            f.window_host_writes,
        ),
    );
    let images: Vec<f64> = f
        .cache_images
        .iter()
        .chain(&f.images)
        .map(|&b| b as f64)
        .collect();
    res.set(
        "snap.image_bytes",
        if images.is_empty() {
            0.0
        } else {
            images.iter().sum::<f64>() / images.len() as f64
        },
    );
    let warm = out.warm.unwrap_or(ida_sweep::WarmStats {
        hits: 0,
        disk_hits: 0,
        remote_hits: 0,
        misses: 0,
    });
    res.set("sweep.warm_hits", warm.total_hits() as f64);
    res.set("sweep.warm_misses", warm.misses as f64);
    res.set(
        "sweep.warm_held_mib",
        f.cache_images.iter().sum::<u64>() as f64 / (1 << 20) as f64,
    );
    res.set("faults.injected", f.injected as f64);
    res.set("faults.recoveries", f.recoveries as f64);
    if res.workload.is_grid() {
        let cell_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "bench.cell")
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        res.set("sweep.cell_p50_ms", stats::percentile(&cell_ms, 50));
        // p85 is the tail both full grids (88 and 110 cells) can report
        // with at least ten cells beyond it; a smaller grid reports none.
        if stats::highest_tail_percentile(cell_ms.len()) >= Some(85) {
            res.set("sweep.cell_p85_ms", stats::percentile(&cell_ms, 85));
        }
        res.set("sweep.pool_ms", self_ms("sweep.run_cells"));
        res.set("sweep.aggregate_ms", self_ms("sweep.aggregate"));
    }
    if res.workload == Workload::LoadWrite {
        res.set("host.source_ms", self_ms("host.source"));
    }
    // The layer split covers the pass itself; the span probe that runs
    // after it is not part of the traced wall time.
    let wall_ms = res.get("wall_s").unwrap_or(0.0) * 1e3;
    let mut total_ms = 0.0;
    for root in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name != "obs.probe")
    {
        for (layer, ns) in span::layer_self_ns(&span::subtree(spans, root.id)) {
            let v = ns as f64 / 1e6;
            total_ms += v;
            let key = format!("self.{layer}_ms");
            let prev = res.get(&key).unwrap_or(0.0);
            res.set(&key, prev + v);
        }
    }
    res.check(
        "layer_sum",
        (total_ms - wall_ms).abs() <= LAYER_SUM_TOLERANCE * wall_ms,
        format!("layer self times sum to {total_ms:.1} ms of {wall_ms:.1} ms traced wall time"),
    );
}

/// Run one pass of `workload` in this process. A traced pass also
/// returns its spans and carries the per-layer metrics.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
) -> (PassResult, Vec<Span>) {
    let tracer = traced.then(|| Tracer::new(workload.name()));
    let tr = tracer.as_ref();
    let mut out = match workload {
        Workload::Fig8Grid | Workload::FaultsGrid => grid_pass(workload, seed, sizes, tr),
        Workload::ReplayRead | Workload::LoadWrite => systems_pass(workload, seed, sizes, tr),
    };
    let spans = tracer.map(|t| t.spans()).unwrap_or_default();
    if traced {
        layer_metrics(&mut out, &spans);
    }
    (out.res, spans)
}
