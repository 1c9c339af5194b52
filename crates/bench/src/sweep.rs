//! The `SweepSpec`-driven entry point onto the [`ida_sweep`] engine.
//!
//! This module is the bridge between the generic orchestration engine
//! and the paper's experiments: it defines the built-in grids (every
//! figure and table of the paper's evaluation that runs the simulator),
//! knows how to execute one [`Cell`] as a full warm-up → measure
//! simulation, and renders aggregated outcomes into the paper's tables.
//!
//! Determinism: a cell's simulator seed is its warm seed
//! ([`warm_seed_for`]) and its post-warm-up randomness derives from
//! [`Cell::stream_seed`] — both pure functions of the cell's coordinates —
//! and the workload generators are seeded by the preset, so a cell's
//! payload never depends on which worker ran it or in what order.
//! Panics inside a cell (unknown workload, malformed parameter) flow
//! into the engine's per-cell failure records instead of aborting the
//! whole sweep.

use crate::blocks::run_blocks;
use crate::load::{drive_load, load_metrics_json, nominal_iops, LoadSpec, LOAD_PCTS};
use crate::runner::{
    prefix_cache_key, run_warmed, try_system_config, warm_cache_key, warmed_simulator_cached,
    ExperimentScale, ReplayMode, SystemUnderTest, WARM_SEED_BASE,
};
use crate::soak::{soak_metrics_json, soak_warmed, SOAK_EPOCHS, SOAK_SPARES_PER_PLANE};
use crate::table::{f, TextTable};
use ida_core::{MergePlan, RefreshOverhead};
use ida_faults::FaultConfig;
use ida_flash::coding::CodingScheme;
use ida_flash::timing::FlashTiming;
use ida_ftl::CodingVariant;
use ida_host::ArrivalSpec;
use ida_obs::json::JsonObj;
use ida_ssd::retry::RetryConfig;
use ida_ssd::{ReadBreakdown, Report, SsdConfig};
use ida_sweep::{
    derive_stream_seed, jsonv, Cell, SweepConfig, SweepOutcome, SweepSpec, WarmCache, WarmTier,
};
use ida_workloads::suite::{extra_workloads, paper_workloads, WorkloadPreset};
use std::collections::{BTreeMap, BTreeSet};

/// The voltage-adjustment error rates of Figure 8 (E0–E80).
pub const FIG8_ERROR_RATES: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

/// The ΔtR axis of Figure 9, in µs.
pub const FIG9_DELTA_TR_US: [u64; 5] = [30, 40, 50, 60, 70];

/// The closed-loop queue depth of Figure 10.
pub const FIG10_QUEUE_DEPTH: usize = 32;

/// The decoding-failure probability of Figure 11's late-lifetime phase.
pub const FIG11_LATE_FAILURE_PROB: f64 = 0.4;

/// Spare blocks reserved per plane in the `faults` grid, so retired
/// blocks can be remapped before the device degrades to read-only.
pub const FAULT_SPARES_PER_PLANE: u32 = 2;

/// Aging levels swept by the `lifetime` grid (the `off` level is the
/// other grids' implicit baseline, `low` barely moves at our scale).
pub const LIFETIME_LEVELS: [&str; 2] = ["mid", "high"];

/// Table IV's per-workload values in paper workload order
/// ([`paper_workloads`]): valid pages per refreshed block, additional
/// reads and additional writes.
pub const TABLE4_PAPER: [[f64; 11]; 3] = [
    [
        122.88, 122.21, 128.69, 114.87, 103.34, 130.26, 102.14, 116.36, 142.67, 98.58, 113.69,
    ],
    [
        60.98, 60.47, 63.77, 56.41, 51.24, 64.29, 50.54, 57.53, 70.68, 48.61, 56.39,
    ],
    [
        12.19, 12.09, 12.75, 11.28, 10.24, 12.86, 10.11, 11.51, 14.13, 9.72, 11.28,
    ],
];

/// Table V's per-workload MLC read-response improvement of IDA-E20, in
/// percent, in paper workload order.
pub const TABLE5_PAPER: [f64; 11] = [30.8, 8.2, 16.3, 8.1, 7.8, 18.3, 9.6, 3.4, 19.8, 31.8, 10.6];

/// The names [`builtin_grid`] understands.
pub const BUILTIN_GRIDS: [&str; 13] = [
    "fig8", "fig9", "fig10", "fig11", "faults", "load", "lifetime", "fig4", "table4", "table5",
    "fig6", "ablation", "blocks",
];

fn workload_names() -> Vec<String> {
    paper_workloads().into_iter().map(|p| p.spec.name).collect()
}

fn ida_label(error_rate: f64) -> String {
    SystemUnderTest::Ida { error_rate }.label()
}

/// The grid behind a built-in sweep name (one of [`BUILTIN_GRIDS`]).
pub fn builtin_grid(name: &str) -> Option<SweepSpec> {
    let workloads = workload_names();
    let pair = || vec!["Baseline".to_string(), ida_label(0.2)];
    match name {
        "fig8" => {
            let mut systems = vec!["Baseline".to_string()];
            systems.extend(FIG8_ERROR_RATES.iter().map(|&e| ida_label(e)));
            Some(SweepSpec::new("fig8", workloads, systems))
        }
        "fig9" => Some(SweepSpec::new("fig9", workloads, pair()).with_axis(
            "dtr_us",
            FIG9_DELTA_TR_US.iter().map(|d| d.to_string()).collect(),
        )),
        "fig10" => Some(
            SweepSpec::new("fig10", workloads, pair())
                .with_axis("replay", vec![format!("qd{FIG10_QUEUE_DEPTH}")]),
        ),
        "fig11" => Some(SweepSpec::new("fig11", workloads, pair()).with_axis(
            "phase",
            vec![
                "early".into(),
                format!("late{:.0}", FIG11_LATE_FAILURE_PROB * 100.0),
            ],
        )),
        "faults" => Some(
            SweepSpec::new("faults", workloads, pair())
                .with_axis("faults", FaultConfig::LEVELS.map(String::from).to_vec()),
        ),
        "load" => Some(
            SweepSpec::new("load", workloads, pair())
                .with_axis("load", LOAD_PCTS.iter().map(|p| p.to_string()).collect()),
        ),
        "lifetime" => Some(
            SweepSpec::new("lifetime", workloads, pair())
                .with_axis("aging", LIFETIME_LEVELS.map(String::from).to_vec()),
        ),
        "fig4" => {
            let mut all = workloads;
            all.extend(extra_workloads().into_iter().map(|p| p.spec.name));
            Some(
                SweepSpec::new("fig4", all, vec!["Baseline".into()])
                    .with_axis("variant", vec!["tlc".into()]),
            )
        }
        "table4" => Some(
            SweepSpec::new("table4", workloads, vec![ida_label(0.2)])
                .with_axis("variant", vec!["tlc".into()]),
        ),
        "table5" => Some(
            SweepSpec::new("table5", workloads, pair()).with_axis("variant", vec!["mlc".into()]),
        ),
        "fig6" => {
            Some(SweepSpec::new("fig6", workloads, pair()).with_axis("variant", vec!["qlc".into()]))
        }
        "ablation" => Some(SweepSpec::new("ablation", workloads, pair()).with_axis(
            "variant",
            ["tlc", "tlc232", "noplace"].map(String::from).to_vec(),
        )),
        // §III-C's tables cover the first four paper workloads.
        "blocks" => Some(
            SweepSpec::new("blocks", workloads.into_iter().take(4).collect(), pair())
                .with_axis("blocks", vec!["growth".into(), "gc".into()]),
        ),
        _ => None,
    }
}

/// Parse a `phase` parameter (`early`, `late<pct>`) into a retry model,
/// seeding the late-lifetime sampler from the cell's stream so every
/// cell retries independently yet reproducibly.
///
/// # Errors
///
/// Returns a message for unrecognized phases.
pub fn parse_phase(phase: &str, stream_seed: u64) -> Result<RetryConfig, String> {
    if phase == "early" {
        return Ok(RetryConfig::disabled());
    }
    if let Some(pct) = phase.strip_prefix("late") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad failure percentage in phase {phase:?}"))?;
        return Ok(RetryConfig::late_lifetime(
            pct / 100.0,
            derive_stream_seed(stream_seed, "retry"),
        ));
    }
    Err(format!(
        "unknown phase {phase:?} (expected early or late<pct>)"
    ))
}

/// Parse a system label (`Baseline`, `IDA-E20`) back into a
/// [`SystemUnderTest`].
///
/// # Errors
///
/// Returns a message for unrecognized labels.
pub fn parse_system(label: &str) -> Result<SystemUnderTest, String> {
    if label == "Baseline" {
        return Ok(SystemUnderTest::Baseline);
    }
    if let Some(pct) = label.strip_prefix("IDA-E") {
        let pct: f64 = pct
            .parse()
            .map_err(|_| format!("bad IDA error rate in system label {label:?}"))?;
        return Ok(SystemUnderTest::Ida {
            error_rate: pct / 100.0,
        });
    }
    Err(format!(
        "unknown system label {label:?} (expected Baseline or IDA-E<pct>)"
    ))
}

/// The per-cell result payload: the slice of the [`Report`] the sweep
/// renderers (and downstream analysis) consume, as deterministic JSON.
pub fn metrics_json(report: &Report) -> String {
    let ftl = &report.ftl;
    let injected_faults =
        ftl.injected_program_fails + ftl.injected_erase_fails + ftl.transient_read_faults;
    JsonObj::new()
        .u64("reads", report.reads.count)
        .f64("mean_read_ns", report.reads.mean())
        .u64("p50_read_ns", report.reads.percentile(50.0))
        .u64("p99_read_ns", report.reads.percentile(99.0))
        .u64("writes", report.writes.count)
        .f64("mean_write_ns", report.writes.mean())
        .f64("throughput_mbps", report.throughput_mbps())
        .f64("throughput_mibps", report.throughput_mibps())
        .u64("ida_reads", report.breakdown.ida)
        .u64("in_use_blocks", report.in_use_blocks as u64)
        .u64("injected_faults", injected_faults)
        .u64("injected_program_fails", ftl.injected_program_fails)
        .u64("injected_erase_fails", ftl.injected_erase_fails)
        .u64("transient_read_faults", ftl.transient_read_faults)
        .u64("write_redirects", ftl.write_redirects)
        .u64("retired_blocks", ftl.retired_blocks)
        .u64("power_losses", ftl.power_losses)
        .u64("recoveries", ftl.recoveries)
        .u64("rejected_writes", ftl.rejected_writes)
        .raw("attribution", &report.attribution_json())
        .finish()
}

/// The payload of a cell on the `variant` axis: [`metrics_json`]'s
/// fields plus exact counts — the [`ReadBreakdown`] under `breakdown` and
/// the refresh-overhead sums under `refresh_overhead` — from which the
/// renderers compute their fractions and means.
pub fn variant_metrics_json(report: &Report) -> String {
    let o = &report.ftl.refresh_overhead;
    let overhead = JsonObj::new()
        .u64("refreshes", o.refreshes)
        .u64("valid_pages", o.valid_pages)
        .u64("target_pages", o.target_pages)
        .u64("error_pages", o.error_pages)
        .finish();
    let metrics = metrics_json(report);
    let fields = metrics
        .strip_suffix('}')
        .expect("metrics_json renders an object");
    let breakdown = report.breakdown.to_json();
    format!("{fields},\"breakdown\":{breakdown},\"refresh_overhead\":{overhead}}}")
}

/// The axes excluded from a cell's warm identity, and so from its warm
/// seed ([`warm_seed_for`]): everything on this list is armed or applied
/// *after* warm-up, so cells differing only here share a bit-identical
/// warm-up (and one snapshot). `dtr_us` and `phase` stay in the
/// identity, so their columns warm under seeds of their own; the warm-up
/// reads neither the timing nor the retry model they set (see
/// [`ida_ssd::SsdConfig::warm_view`]), so those columns share only their
/// workload's prefix.
pub const WARM_EXCLUDED_AXES: [&str; 4] = ["faults", "aging", "load", "replay"];

/// A cell's warm identity: its ID with the [`WARM_EXCLUDED_AXES`]
/// parameters removed.
pub fn warm_id(cell: &Cell) -> String {
    let mut id = format!("{}/{}", cell.workload, cell.system);
    for (k, v) in &cell.params {
        if WARM_EXCLUDED_AXES.contains(&k.as_str()) {
            continue;
        }
        id.push('/');
        id.push_str(k);
        id.push('=');
        id.push_str(v);
    }
    id.push_str(&format!("/r{}", cell.replicate));
    id
}

/// The warm-phase simulator seed of a cell — a pure function of its
/// warm identity, shared by every cell that shares a warm-up.
pub fn warm_seed_for(cell: &Cell) -> u64 {
    derive_stream_seed(WARM_SEED_BASE, &warm_id(cell))
}

/// Execute one cell: warm its configuration ([`cell_config`]) once,
/// through the optional warm-state cache, then run the cell's
/// measurement on the warm simulator — the soak epochs of an `aging`
/// cell, the host frontend at the offered rate of a `load` cell, and
/// otherwise a replay of the measured trace (closed loop on the `replay`
/// axis, with the `faults` plan armed first) — and render its metrics
/// payload. `blocks` cells warm up outside the cache.
///
/// The warm-state cache only changes *when* warm-ups execute, never what
/// any cell computes: the warm-phase seed is applied unconditionally, and
/// a hit restores byte-identical simulator state. Without one (`None`)
/// the cell warms up on its own — the unshared reference grid runs are
/// tested against.
///
/// # Panics
///
/// Panics on unknown workloads, system labels, or malformed parameters —
/// the engine catches these as per-cell failures.
pub fn run_cell_cached(cell: &Cell, scale: &ExperimentScale, warm: Option<&WarmCache>) -> String {
    if let Some(part) = cell.param("blocks") {
        let preset = cell_preset(cell).unwrap_or_else(|e| panic!("{e}"));
        let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
        return run_blocks(&preset, system, part, scale).unwrap_or_else(|e| panic!("{e}"));
    }
    let (preset, cfg) = cell_config(cell, scale).unwrap_or_else(|e| panic!("{e}"));
    let system = parse_system(&cell.system).expect("cell_config parsed the system label");
    let (mut sim, trace) = warmed_simulator_cached(&preset, cfg, scale, warm);
    if let Some(pct) = cell.param("load") {
        let pct: u64 = pct
            .parse()
            .unwrap_or_else(|_| panic!("bad load parameter {pct:?} (expected a percentage)"));
        let offered = (nominal_iops(&preset.spec) * pct / 100).max(1);
        let spec = LoadSpec::new(system, ArrivalSpec::Poisson, offered, cell.stream_seed);
        let run = drive_load(&mut sim, &preset, &spec, &trace).unwrap_or_else(|e| panic!("{e}"));
        return load_metrics_json(&run);
    }
    if let Some(level) = cell.param("aging") {
        let run = soak_warmed(
            sim,
            &trace,
            &preset,
            system,
            level,
            SOAK_EPOCHS,
            cell.stream_seed,
        );
        return soak_metrics_json(&run);
    }
    let mode = match cell.param("replay") {
        None | Some("open") => ReplayMode::OpenLoop,
        Some(qd) => match qd.strip_prefix("qd").and_then(|n| n.parse().ok()) {
            Some(depth) => ReplayMode::ClosedLoop(depth),
            None => panic!("bad replay parameter {qd:?} (expected open or qd<depth>)"),
        },
    };
    let faults = cell.param("faults").map(|level| {
        FaultConfig::preset(level, derive_stream_seed(cell.stream_seed, "faults"))
            .unwrap_or_else(|| panic!("unknown fault level {level:?}"))
    });
    let report = run_warmed(sim, &trace, mode, faults);
    match cell.param("variant") {
        Some(_) => variant_metrics_json(&report),
        None => metrics_json(&report),
    }
}

/// A cell's workload: one of the paper's 11, or one of Figure 4's 9
/// extra workloads.
fn cell_preset(cell: &Cell) -> Result<WorkloadPreset, String> {
    let mut presets = paper_workloads().into_iter().chain(extra_workloads());
    presets
        .find(|p| p.spec.name == cell.workload)
        .ok_or_else(|| format!("unknown workload {}", cell.workload))
}

/// The workload of a cell and the configuration it warms up under —
/// what [`run_cell_cached`] warms, `plan_warm_cache` keys and `idasim
/// snapshot save` saves: the cell's device variant (the paper's TLC when
/// it has none), its ΔtR, its lifetime phase's retry model, spares when a
/// fault plan or an aging model will be armed, and the warm-phase seed.
///
/// # Errors
///
/// An unknown workload, system label or variant, a malformed `dtr_us` or
/// `phase`, or a `blocks` cell, which warms up outside the warm cache.
pub fn cell_config(
    cell: &Cell,
    scale: &ExperimentScale,
) -> Result<(WorkloadPreset, SsdConfig), String> {
    let preset = cell_preset(cell)?;
    let system = parse_system(&cell.system)?;
    if cell.param("blocks").is_some() {
        return Err("blocks cells warm up outside the warm cache".into());
    }
    let variant = cell.param("variant").unwrap_or("tlc");
    let (bits, mut timing) = match variant {
        "tlc" | "tlc232" | "noplace" => (3, FlashTiming::paper_tlc()),
        "mlc" => (2, FlashTiming::paper_mlc()),
        // The TLC base and ΔtR ladder, stretched to 1-8 senses.
        "qlc" => (4, FlashTiming::paper_tlc()),
        other => return Err(format!("unknown variant {other:?}")),
    };
    if let Some(d) = cell.param("dtr_us") {
        let d: u64 = d
            .parse()
            .map_err(|_| format!("bad dtr_us parameter {d:?}"))?;
        timing = timing.with_delta_tr_us(d);
    }
    let retry = match cell.param("phase") {
        None => RetryConfig::disabled(),
        Some(phase) => parse_phase(phase, cell.stream_seed)?,
    };
    let geometry = scale.geometry.with_bits_per_cell(bits);
    let mut cfg = try_system_config(system, geometry, timing, retry)?;
    if variant == "tlc232" {
        cfg.ftl.coding = CodingVariant::Tlc232;
    }
    if variant == "noplace" {
        cfg.ftl.lsb_placement = false;
    }
    cfg.ftl.seed = warm_seed_for(cell);
    if cell.param("faults").is_some() {
        cfg.ftl.spare_blocks_per_plane = FAULT_SPARES_PER_PLANE;
    }
    if cell.param("aging").is_some() {
        cfg.ftl.spare_blocks_per_plane = SOAK_SPARES_PER_PLANE;
    }
    Ok((preset, cfg))
}

/// Tell `cache` how often each warm image will be asked for when `cells`
/// run: one request per cell for its full warm state, and one prefix
/// request per distinct full warm state (only the build of a full state
/// reads its prefix). Cells without a warm configuration are skipped:
/// `blocks` cells never reach the cache, and cells whose configuration
/// does not parse fail before reaching it.
fn plan_warm_cache<'a>(
    cache: &WarmCache,
    cells: impl IntoIterator<Item = &'a Cell>,
    scale: &ExperimentScale,
) {
    let mut full: BTreeMap<u64, u64> = BTreeMap::new();
    let mut prefixes: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for cell in cells {
        let Ok((preset, cfg)) = cell_config(cell, scale) else {
            continue;
        };
        let key = warm_cache_key(&preset.spec.name, &cfg, scale);
        *full.entry(key).or_default() += 1;
        prefixes
            .entry(prefix_cache_key(&preset.spec.name, &cfg, scale))
            .or_default()
            .insert(key);
    }
    for (key, uses) in full {
        cache.plan(WarmTier::Full, key, uses);
    }
    for (key, forks) in prefixes {
        cache.plan(WarmTier::Prefix, key, forks.len() as u64);
    }
}

/// Run a grid on the engine: expand the spec, execute every cell at
/// `scale` on `cfg.jobs` workers (with checkpoint/resume when a journal
/// is configured), and collect the outcome. The cells the journal does
/// not settle share their warm-ups through a planned [`WarmCache`]:
/// `cfg`'s when one is attached (so the caller can read its counters),
/// otherwise a fresh one. The run's setup is [`setup_json`] of `scale`,
/// so a journal resumes only at the same scale.
///
/// # Errors
///
/// Fails on journal I/O errors; cell panics become failure records.
pub fn run_grid(
    spec: &SweepSpec,
    scale: &ExperimentScale,
    cfg: &SweepConfig,
) -> std::io::Result<SweepOutcome> {
    run_grid_on(spec, scale, cfg, Backend::Local)
}

/// Where a grid's cells execute. Either way the aggregate is the same
/// bytes — the backend only decides which processes burn the CPU.
#[derive(Debug)]
pub enum Backend {
    /// The in-process worker pool, on `cfg.jobs` threads.
    Local,
    /// The distributed fabric: this process becomes the coordinator and
    /// serves cells to `idasim worker` processes over the listener.
    Distributed {
        /// The already-bound coordinator listener.
        listener: std::net::TcpListener,
    },
}

/// [`run_grid`] with an explicit execution [`Backend`].
///
/// # Errors
///
/// Journal I/O and listener errors; cell panics (local or remote) and
/// worker disconnects become per-cell failure records.
pub fn run_grid_on(
    spec: &SweepSpec,
    scale: &ExperimentScale,
    cfg: &SweepConfig,
    backend: Backend,
) -> std::io::Result<SweepOutcome> {
    let cells = spec.cells();
    let cfg = &SweepConfig {
        setup: setup_json(scale),
        ..cfg.clone()
    };
    let outcomes = match backend {
        Backend::Local => {
            let warm = cfg.warm.clone().unwrap_or_default();
            let pending = ida_sweep::pending_cells(&spec.name, &cells, cfg)?;
            plan_warm_cache(&warm, pending, scale);
            ida_sweep::run_cells(&spec.name, &cells, cfg, |cell| {
                run_cell_cached(cell, scale, Some(&warm))
            })?
        }
        Backend::Distributed { listener } => {
            ida_sweep::net::serve(&spec.name, &cells, cfg, listener, |ev| {
                eprintln!("{}", ev.to_json_line())
            })?
        }
    };
    Ok(SweepOutcome {
        sweep: spec.name.clone(),
        outcomes,
    })
}

/// The experiment-setup payload of a grid run ([`SweepConfig::setup`]):
/// the scale knobs a worker needs to execute cells byte-identically to a
/// local run, and that a journaled cell must have run under to be
/// reused. The geometry never travels — every built-in scale uses the
/// workspace's scaled-8GB device, so only the trace knobs vary.
pub fn setup_json(scale: &ExperimentScale) -> String {
    JsonObj::new()
        .u64("requests", scale.requests as u64)
        .f64("refresh_period_frac", scale.refresh_period_frac)
        .finish()
}

/// Rebuild an [`ExperimentScale`] from a coordinator's setup payload.
///
/// # Errors
///
/// Returns a message for malformed or incomplete payloads.
pub fn scale_from_setup(setup: &str) -> Result<ExperimentScale, String> {
    let v = jsonv::parse(setup).map_err(|e| format!("bad setup payload: {e}"))?;
    let requests = v
        .get("requests")
        .and_then(|x| x.as_f64())
        .ok_or("setup payload missing requests")? as usize;
    let frac = v
        .get("refresh_period_frac")
        .and_then(|x| x.as_f64())
        .ok_or("setup payload missing refresh_period_frac")?;
    let mut scale = ExperimentScale::smoke().with_requests(requests);
    scale.refresh_period_frac = frac;
    Ok(scale)
}

/// Run a fabric worker executing built-in-grid cells: rebuild the
/// coordinator's scale from the `Welcome` setup and run each cell
/// exactly as the local pool would. Each lease is one workload's cells,
/// so the process-wide warm cache is planned per lease, as a local run
/// plans its grid, and every warm-up it needs is built here.
///
/// # Errors
///
/// Connection and handshake failures (when no connection succeeds).
pub fn run_grid_worker(
    addr: &str,
    threads: usize,
    wait: std::time::Duration,
) -> std::io::Result<ida_sweep::WorkerReport> {
    let warm = WarmCache::new();
    let report = ida_sweep::net::run_worker(
        addr,
        threads,
        wait,
        |cells, setup| {
            // Plan on a thread of its own, as a local run plans before its
            // pool threads start. On the connection's thread, the plan's
            // small temporaries land among the large blocks the previous
            // lease's cells just freed and split them: a faults-grid worker
            // then peaked at 240 MiB RSS instead of 183 MiB.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // A setup that does not parse skips the plan; `run`
                    // then fails each cell.
                    if let Ok(scale) = scale_from_setup(setup) {
                        plan_warm_cache(&warm, cells, &scale);
                    }
                });
            });
        },
        |cell, setup| {
            let scale = scale_from_setup(setup).unwrap_or_else(|e| panic!("{e}"));
            run_cell_cached(cell, &scale, Some(&warm))
        },
    )?;
    eprintln!("{}", warm.stats_line(report.ran));
    Ok(report)
}

/// A numeric metric from a cell's payload (`None` if the cell failed or
/// the key is absent).
pub fn metric(
    outcome: &SweepOutcome,
    workload: &str,
    system: &str,
    params: &[(&str, &str)],
    key: &str,
) -> Option<f64> {
    let payload = outcome.payload(workload, system, params)?;
    jsonv::parse(payload).ok()?.get(key)?.as_f64()
}

/// A boolean metric from a cell's payload.
pub fn metric_bool(
    outcome: &SweepOutcome,
    workload: &str,
    system: &str,
    params: &[(&str, &str)],
    key: &str,
) -> Option<bool> {
    let payload = outcome.payload(workload, system, params)?;
    jsonv::parse(payload).ok()?.get(key)?.as_bool()
}

fn failed_note(outcome: &SweepOutcome) -> String {
    if outcome.failed_count() == 0 {
        String::new()
    } else {
        let failed: Vec<String> = outcome
            .outcomes
            .iter()
            .filter(|o| o.payload().is_none())
            .map(|o| o.cell.id())
            .collect();
        format!(
            "\nWARNING: {} cell(s) failed and are missing above: {}\n",
            failed.len(),
            failed.join(", ")
        )
    }
}

/// Render a built-in grid's outcome as its figure table.
///
/// # Errors
///
/// Returns a message for unknown sweep names.
pub fn render(outcome: &SweepOutcome) -> Result<String, String> {
    match outcome.sweep.as_str() {
        "fig8" => Ok(render_fig8(outcome)),
        "fig9" => Ok(render_fig9(outcome)),
        "fig10" => Ok(render_fig10(outcome)),
        "fig11" => Ok(render_fig11(outcome)),
        "faults" => Ok(render_faults(outcome)),
        "load" => Ok(render_load(outcome)),
        "lifetime" => Ok(render_lifetime(outcome)),
        "fig4" => Ok(render_fig4(outcome)),
        "table4" => Ok(render_table4(outcome)),
        "table5" => Ok(render_table5(outcome)),
        "fig6" => Ok(render_fig6(outcome)),
        "ablation" => Ok(render_ablation(outcome)),
        "blocks" => Ok(render_blocks(outcome)),
        other => Err(format!("no renderer for sweep {other:?}")),
    }
}

/// One column of a normalized-ratio table: `system`'s `key` metric over
/// Baseline's, both read at the cell parameter `param`.
struct Ratio {
    /// Column header.
    label: String,
    system: String,
    param: Option<(&'static str, String)>,
    key: &'static str,
}

impl Ratio {
    /// An IDA-E20 column at `axis = value`.
    fn e20(label: String, axis: &'static str, value: &str, key: &'static str) -> Ratio {
        Ratio {
            label,
            system: ida_label(0.2),
            param: Some((axis, value.to_string())),
            key,
        }
    }

    /// The column's ratio on workload `w`: `1.0` where a cell is missing
    /// or Baseline is zero.
    fn of(&self, outcome: &SweepOutcome, w: &str) -> f64 {
        let params: Vec<(&str, &str)> = self.param.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let base = metric(outcome, w, "Baseline", &params, self.key).unwrap_or(0.0);
        match metric(outcome, w, &self.system, &params, self.key) {
            Some(ida) if base > 0.0 => ida / base,
            _ => 1.0,
        }
    }
}

/// The normalized-ratio table shared by the figure renderers: one row
/// per workload with each column's ratio ([`Ratio::of`]), then an
/// AVERAGE row. Returns the table and the column means.
fn ratio_table(outcome: &SweepOutcome, cols: &[Ratio]) -> (TextTable, Vec<f64>) {
    let workloads = workload_names();
    let mut header = vec!["Name".to_string()];
    header.extend(cols.iter().map(|c| c.label.clone()));
    let mut t = TextTable::new(header);
    let mut sums = vec![0.0; cols.len()];
    for w in &workloads {
        let mut row = vec![w.clone()];
        for (col, sum) in cols.iter().zip(&mut sums) {
            let norm = col.of(outcome, w);
            *sum += norm;
            row.push(f(norm, 3));
        }
        t.row(row);
    }
    let means: Vec<f64> = sums.iter().map(|s| s / workloads.len() as f64).collect();
    let mut avg = vec!["AVERAGE".to_string()];
    avg.extend(means.iter().map(|&m| f(m, 3)));
    t.row(avg);
    (t, means)
}

/// Figure 8 table: normalized read response per workload × error rate.
pub fn render_fig8(outcome: &SweepOutcome) -> String {
    let cols: Vec<Ratio> = FIG8_ERROR_RATES
        .iter()
        .map(|&e| Ratio {
            label: format!("E{:.0}", e * 100.0),
            system: ida_label(e),
            param: None,
            key: "mean_read_ns",
        })
        .collect();
    let (t, means) = ratio_table(outcome, &cols);
    let mut out = String::from("Figure 8 — normalized read response time (lower is better)\n\n");
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("Paper averages: E0 ≈ 0.69, E20 ≈ 0.72, E50 ≈ 0.798, E80 ≈ 0.93\n");
    out.push_str(&format!(
        "Measured averages: E0 = {:.3}, E20 = {:.3}, E50 = {:.3}, E80 = {:.3}\n",
        means[0], means[2], means[5], means[8],
    ));
    out.push_str(&failed_note(outcome));
    out
}

/// Figure 9 table: normalized read response of IDA-E20 per ΔtR.
pub fn render_fig9(outcome: &SweepOutcome) -> String {
    let cols: Vec<Ratio> = FIG9_DELTA_TR_US
        .iter()
        .map(|d| {
            Ratio::e20(
                format!("dTR={d}us"),
                "dtr_us",
                &d.to_string(),
                "mean_read_ns",
            )
        })
        .collect();
    let (t, _) = ratio_table(outcome, &cols);
    let mut out =
        String::from("Figure 9 — normalized read response of IDA-E20 vs ΔtR (lower is better)\n\n");
    out.push_str(&t.render());
    out.push('\n');
    out.push_str("Paper: ΔtR=30µs ⇒ ~0.86, ΔtR=50µs ⇒ ~0.72, ΔtR=70µs ⇒ ~0.51 on average.\n");
    out.push_str(&failed_note(outcome));
    out
}

/// Figure 10 table: closed-loop device throughput, baseline vs IDA-E20.
pub fn render_fig10(outcome: &SweepOutcome) -> String {
    let workloads = workload_names();
    let qd = format!("qd{FIG10_QUEUE_DEPTH}");
    let params: &[(&str, &str)] = &[("replay", &qd)];
    let mut t = TextTable::new(vec![
        "Name",
        "Baseline MB/s",
        "IDA-E20 MB/s",
        "IDA-E20 MiB/s",
        "Normalized",
    ]);
    let mut sum = 0.0;
    for w in &workloads {
        let base = metric(outcome, w, "Baseline", params, "throughput_mbps").unwrap_or(0.0);
        let ida = metric(outcome, w, &ida_label(0.2), params, "throughput_mbps").unwrap_or(0.0);
        let ida_mib =
            metric(outcome, w, &ida_label(0.2), params, "throughput_mibps").unwrap_or(0.0);
        let norm = ida / base.max(1e-9);
        sum += norm;
        t.row(vec![
            w.clone(),
            f(base, 1),
            f(ida, 1),
            f(ida_mib, 1),
            f(norm, 3),
        ]);
    }
    let mut out = format!(
        "Figure 10 — device throughput, closed loop at queue depth {FIG10_QUEUE_DEPTH} (higher is better)\n"
    );
    out.push_str("MB/s = 10^6 bytes/s (decimal); MiB/s = 2^20 bytes/s (binary)\n\n");
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "Average normalized throughput: {:.3} (paper: ≈ 1.10)\n",
        sum / workloads.len() as f64
    ));
    out.push_str(&failed_note(outcome));
    out
}

/// Figure 11 table: normalized read response by lifetime phase.
pub fn render_fig11(outcome: &SweepOutcome) -> String {
    let late = format!("late{:.0}", FIG11_LATE_FAILURE_PROB * 100.0);
    let cols = [
        Ratio::e20("early".into(), "phase", "early", "mean_read_ns"),
        Ratio::e20("late".into(), "phase", &late, "mean_read_ns"),
    ];
    let (t, means) = ratio_table(outcome, &cols);
    let mut out = String::from(
        "Figure 11 — normalized read response by lifetime phase (lower is better)\n\n",
    );
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "Improvements: early {:.1}% (paper: 28%), late {:.1}% (paper: 42.3%)\n",
        (1.0 - means[0]) * 100.0,
        (1.0 - means[1]) * 100.0
    ));
    out.push_str(&failed_note(outcome));
    out
}

/// Faults table: IDA-E20's normalized read response per fault level, plus
/// the injected-fault and recovery totals that prove every cell both
/// suffered and survived its plan.
pub fn render_faults(outcome: &SweepOutcome) -> String {
    let workloads = workload_names();
    let levels = FaultConfig::LEVELS;
    let cols: Vec<Ratio> = levels
        .iter()
        .map(|l| Ratio::e20(l.to_string(), "faults", l, "mean_read_ns"))
        .collect();
    let (t, _) = ratio_table(outcome, &cols);
    let mut out = String::from(
        "Faults — normalized read response of IDA-E20 under rising fault rates (lower is better)\n\n",
    );
    out.push_str(&t.render());
    out.push('\n');
    // Per-level fault/recovery totals across every workload and system.
    let mut totals = TextTable::new(vec![
        "Level",
        "Injected",
        "Redirects",
        "Retired",
        "Power losses",
        "Recoveries",
        "Rejected writes",
    ]);
    for level in levels {
        let params: &[(&str, &str)] = &[("faults", level)];
        let sum_of = |key: &str| -> f64 {
            let mut total = 0.0;
            for w in &workloads {
                for sys in ["Baseline".to_string(), ida_label(0.2)] {
                    total += metric(outcome, w, &sys, params, key).unwrap_or(0.0);
                }
            }
            total
        };
        totals.row(vec![
            level.to_string(),
            f(sum_of("injected_faults"), 0),
            f(sum_of("write_redirects"), 0),
            f(sum_of("retired_blocks"), 0),
            f(sum_of("power_losses"), 0),
            f(sum_of("recoveries"), 0),
            f(sum_of("rejected_writes"), 0),
        ]);
    }
    out.push_str(&totals.render());
    out.push_str(&failed_note(outcome));
    out
}

/// Load table: the latency-vs-load hockey stick — end-to-end read p99
/// (µs) per workload × offered rate, one row per system. A trailing `*`
/// marks a cell that missed the SLO, `!` one that shed requests.
pub fn render_load(outcome: &SweepOutcome) -> String {
    let workloads = workload_names();
    let systems = ["Baseline".to_string(), ida_label(0.2)];
    let mut header = vec!["Name".to_string(), "System".to_string()];
    header.extend(LOAD_PCTS.iter().map(|p| format!("{p}%")));
    let mut t = TextTable::new(header);
    for w in &workloads {
        for sys in &systems {
            let mut row = vec![w.clone(), sys.clone()];
            for pct in LOAD_PCTS {
                let load = pct.to_string();
                let params: &[(&str, &str)] = &[("load", &load)];
                let p99 = metric(outcome, w, sys, params, "read_p99_ns");
                let met = metric_bool(outcome, w, sys, params, "slo_met");
                let shed = metric(outcome, w, sys, params, "shed").unwrap_or(0.0);
                row.push(match p99 {
                    Some(ns) => {
                        let mut cell = f(ns / 1_000.0, 0);
                        if met == Some(false) {
                            cell.push('*');
                        }
                        if shed > 0.0 {
                            cell.push('!');
                        }
                        cell
                    }
                    None => "-".to_string(),
                });
            }
            t.row(row);
        }
    }
    let mut out = String::from(
        "Load — end-to-end read p99 (µs) vs offered rate, % of nominal (the hockey stick)\n",
    );
    out.push_str("* = missed the 2 ms p99 SLO, ! = shed requests at admission\n\n");
    out.push_str(&t.render());
    out.push_str(&failed_note(outcome));
    out
}

/// Lifetime table: IDA-E20's normalized mean read response fresh vs
/// aged per aging level. The aged column below the fresh column means
/// IDA's advantage *widens* as the device wears — aged reads sense more
/// levels on baseline pages, so IDA's shallower ladders save more.
pub fn render_lifetime(outcome: &SweepOutcome) -> String {
    let workloads = workload_names();
    let cols: Vec<Ratio> = LIFETIME_LEVELS
        .iter()
        .flat_map(|level| {
            [
                ("fresh", "fresh_mean_read_ns"),
                ("aged", "aged_mean_read_ns"),
            ]
            .map(|(when, key)| Ratio::e20(format!("{level} {when}"), "aging", level, key))
        })
        .collect();
    let (t, _) = ratio_table(outcome, &cols);
    let mut out = String::from(
        "Lifetime — normalized mean read response of IDA-E20, fresh (epoch 0) vs aged (rated P/E)\n",
    );
    out.push_str("Lower is better; aged < fresh means IDA's advantage widens with wear.\n\n");
    out.push_str(&t.render());
    out.push('\n');
    // Invariant and read-only roll-up across every soak cell.
    let mut violations = 0.0;
    let mut read_only = 0u64;
    for w in &workloads {
        for sys in ["Baseline".to_string(), ida_label(0.2)] {
            for level in LIFETIME_LEVELS {
                let params: &[(&str, &str)] = &[("aging", level)];
                violations += metric(outcome, w, &sys, params, "violations").unwrap_or(0.0);
                if metric_bool(outcome, w, &sys, params, "read_only") == Some(true) {
                    read_only += 1;
                }
            }
        }
    }
    out.push_str(&format!(
        "Invariant violations across all soaks: {violations:.0}; cells ending read-only: {read_only}\n"
    ));
    out.push_str(&failed_note(outcome));
    out
}

/// The exact count `object.field` in a TLC cell's payload (0 where the
/// cell failed).
fn tlc_count(outcome: &SweepOutcome, w: &str, system: &str, [object, field]: [&str; 2]) -> u64 {
    let payload = outcome.payload(w, system, &[("variant", "tlc")]);
    let count = payload.and_then(|p| jsonv::parse(p).ok()?.get(object)?.get(field)?.as_u64());
    count.unwrap_or(0)
}

/// Figure 4 table: the Baseline read breakdown by page type and lower-page
/// validity on the 11 paper workloads (left), then the MSB fraction on
/// the 9 extra workloads by read ratio (right).
pub fn render_fig4(outcome: &SweepOutcome) -> String {
    let breakdown = |w: &str| {
        let n = |field| tlc_count(outcome, w, "Baseline", ["breakdown", field]);
        ReadBreakdown {
            lsb: n("lsb"),
            csb_lower_valid: n("csb_lower_valid"),
            csb_lower_invalid: n("csb_lower_invalid"),
            msb_lower_valid: n("msb_lower_valid"),
            msb_lower_invalid: n("msb_lower_invalid"),
            ida: n("ida"),
        }
    };
    let mut left = TextTable::new(vec![
        "Name",
        "LSB %",
        "CSB %",
        "MSB %",
        "CSB w/ LSB invalid %",
        "MSB w/ lower invalid %",
        "(paper MSB-invalid %)",
    ]);
    let presets = paper_workloads();
    let (mut csb_sum, mut msb_sum) = (0.0, 0.0);
    for p in &presets {
        let b = breakdown(&p.spec.name);
        let share = |reads: u64| f(reads as f64 / b.total().max(1) as f64 * 100.0, 1);
        csb_sum += b.csb_invalid_fraction();
        msb_sum += b.msb_invalid_fraction();
        left.row(vec![
            p.spec.name.clone(),
            share(b.lsb),
            share(b.csb_lower_valid + b.csb_lower_invalid),
            share(b.msb_lower_valid + b.msb_lower_invalid),
            f(b.csb_invalid_fraction() * 100.0, 1),
            f(b.msb_invalid_fraction() * 100.0, 1),
            f(p.paper.msb_invalid_pct, 1),
        ]);
    }
    let mut right = TextTable::new(vec!["Name", "Read ratio %", "MSB w/ lower invalid %"]);
    for p in extra_workloads() {
        let msb = breakdown(&p.spec.name).msb_invalid_fraction();
        let read_pct = p.spec.read_ratio * 100.0;
        right.row(vec![p.spec.name, f(read_pct, 0), f(msb * 100.0, 1)]);
    }
    let n = presets.len() as f64;
    format!(
        "Figure 4 (left) — read breakdown on the 11 paper workloads\n\n{}\n\
         Averages: CSB-with-invalid-LSB {:.1}% (paper: 18%), MSB-with-invalid-lower {:.1}% (paper: 30%)\n\n\
         Figure 4 (right) — 9 extra workloads by read ratio\n\n{}{}",
        left.render(),
        csb_sum / n * 100.0,
        msb_sum / n * 100.0,
        right.render(),
        failed_note(outcome)
    )
}

/// Table IV: IDA-E20's mean refresh overhead per block — valid pages, and
/// the additional reads and writes of the voltage adjustment — against
/// the paper's values.
pub fn render_table4(outcome: &SweepOutcome) -> String {
    let mut header = vec!["Name"];
    for column in ["Valid pages / 192", "Additional reads", "Additional writes"] {
        header.extend([column, "(paper)"]);
    }
    let mut t = TextTable::new(header);
    for (i, w) in workload_names().into_iter().enumerate() {
        let n = |field| tlc_count(outcome, &w, &ida_label(0.2), ["refresh_overhead", field]);
        let o = RefreshOverhead {
            refreshes: n("refreshes"),
            valid_pages: n("valid_pages"),
            target_pages: n("target_pages"),
            error_pages: n("error_pages"),
            ..RefreshOverhead::default()
        };
        let means = [
            o.mean_valid(),
            o.mean_additional_reads(),
            o.mean_additional_writes(),
        ];
        let mut row = vec![w];
        for (mean, paper) in means.into_iter().zip(TABLE4_PAPER.map(|column| column[i])) {
            row.extend([f(mean, 2), f(paper, 2)]);
        }
        t.row(row);
    }
    format!(
        "Table IV — refresh overhead per block under IDA-Coding-E20\n\n{}\n\
         Invariant check: additional writes ≈ 20% of additional reads at E20.\n{}",
        t.render(),
        failed_note(outcome)
    )
}

/// An IDA-E20 column of normalized mean read response at `variant`.
fn variant_e20(variant: &str, label: &str) -> Ratio {
    Ratio::e20(label.to_string(), "variant", variant, "mean_read_ns")
}

/// Table V: IDA-E20's read-response improvement on the MLC device against
/// the paper's.
pub fn render_table5(outcome: &SweepOutcome) -> String {
    let mlc = variant_e20("mlc", "Improvement %");
    let mut t = TextTable::new(vec!["Name", "Improvement %", "(paper %)"]);
    let mut sum = 0.0;
    for (w, paper) in workload_names().into_iter().zip(TABLE5_PAPER) {
        let gain = (1.0 - mlc.of(outcome, &w)) * 100.0;
        sum += gain;
        t.row(vec![w, f(gain, 1), f(paper, 1)]);
    }
    format!(
        "Table V — MLC device, IDA-Coding-E20 read response improvement\n\n{}\n\
         Average improvement: {:.1}% (paper: 14.9%)\n{}",
        t.render(),
        sum / TABLE5_PAPER.len() as f64,
        failed_note(outcome)
    )
}

/// Figure 6 and §V-G: the sense count of each QLC bit (`-` once invalid)
/// and the states left, conventionally and after IDA merges that drop the
/// lowest one, two and three bits; then IDA-E20's normalized read response
/// on the QLC device (the paper's future-work experiment).
pub fn render_fig6(outcome: &SweepOutcome) -> String {
    let qlc = CodingScheme::qlc();
    let mut merges = TextTable::new(vec!["Scenario", "Bit1", "Bit2", "Bit3", "Bit4", "States"]);
    for (label, valid) in [
        ("conventional", 0b1111u8),
        ("bit1 invalid", 0b1110),
        ("bits1-2 invalid (Fig 6)", 0b1100),
        ("bits1-3 invalid", 0b1000),
    ] {
        let plan = MergePlan::compute(&qlc, valid);
        let c = plan.merged();
        let mut row = vec![label.to_string()];
        row.extend((0..4).map(|b| match c.is_readable(b) {
            true => c.sense_count(b).to_string(),
            false => "-".into(),
        }));
        row.push(c.live_states().len().to_string());
        merges.row(row);
    }
    let ratio = variant_e20("qlc", "Normalized response");
    let mut t = TextTable::new(vec!["Name", "Normalized response", "Improvement %"]);
    let workloads = workload_names();
    let mut sum = 0.0;
    for w in &workloads {
        let norm = ratio.of(outcome, w);
        sum += norm;
        t.row(vec![w.clone(), f(norm, 3), f((1.0 - norm) * 100.0, 1)]);
    }
    format!(
        "Figure 6 — QLC sense counts before/after IDA merges\n\n{}\n\
         Paper (Fig 6): bits1-2 invalid ⇒ Bit 3: 4→1 senses, Bit 4: 8→2 senses.\n\n\
         Section V-G (future work) — QLC SSD, IDA-E20 vs baseline\n\n{}\n\
         Average QLC improvement: {:.1}% — expected to exceed the TLC result\n\
         (the paper predicts QLC benefits more from its larger latency spread).\n{}",
        merges.render(),
        t.render(),
        (1.0 - sum / workloads.len() as f64) * 100.0,
        failed_note(outcome)
    )
}

/// The two design ablations, each variant normalized by its own Baseline:
/// IDA-E20 on the 1-2-4 and the vendor 2-3-2 TLC coding (§III-B), then
/// IDA-E20 with and without LSB-slot placement of evicted pages (§III-C).
pub fn render_ablation(outcome: &SweepOutcome) -> String {
    let codings = [("tlc", "1-2-4"), ("tlc232", "2-3-2")];
    let codings = codings.map(|(v, coding)| variant_e20(v, &format!("IDA-E20 on {coding}")));
    let (coding, means) = ratio_table(outcome, &codings);
    let [with, without] = ["tlc", "noplace"].map(|v| variant_e20(v, v));
    let mut placement = TextTable::new(vec![
        "Name",
        "IDA-E20 with placement",
        "IDA-E20 without",
        "placement contribution (pp)",
    ]);
    let workloads = workload_names();
    let (mut on_sum, mut off_sum) = (0.0, 0.0);
    for w in &workloads {
        let (on, off) = (with.of(outcome, w), without.of(outcome, w));
        let gap = (off - on) * 100.0;
        on_sum += on;
        off_sum += off;
        placement.row(vec![w.clone(), f(on, 3), f(off, 3), f(gap, 1)]);
    }
    let n = workloads.len() as f64;
    format!(
        "Ablation — IDA benefit under the two TLC codings (normalized response)\n\n{}\n\
         Averages: 1-2-4 coding {:.3} ({:.1}% gain), 2-3-2 coding {:.3} ({:.1}% gain).\n\
         IDA's merges generalize to the flatter vendor coding as the paper claims.\n\
         Note the *relative* gain is no smaller there: 2-3-2 has less read-latency\n\
         variation (the paper's point) but also no fast 1-sense page at all, so a\n\
         merge that creates one buys proportionally more — an effect the paper's\n\
         qualitative discussion does not capture.\n\n\
         Ablation — LSB-slot placement of evicted pages (normalized read response)\n\n{}\n\
         Averages: with placement {:.3}, without {:.3} — placement contributes {} points\n\
         of the improvement.\n{}",
        coding.render(),
        means[0],
        (1.0 - means[0]) * 100.0,
        means[1],
        (1.0 - means[1]) * 100.0,
        placement.render(),
        on_sum / n,
        off_sum / n,
        f((off_sum - on_sum) / n * 100.0, 1),
        failed_note(outcome)
    )
}

/// §III-C's two tables, Baseline against IDA-E20: the data-holding block
/// growth at the paper footprints (`blocks=growth`), then the erases of
/// the follow-on write windows on a full device (`blocks=gc`).
pub fn render_blocks(outcome: &SweepOutcome) -> String {
    let workloads = builtin_grid("blocks").expect("a built-in grid").workloads;
    let systems = ["Baseline".to_string(), ida_label(0.2)];
    // A payload key of both systems' cells, Baseline first.
    let get = |w: &str, part: &str, key: &str| {
        let params: &[(&str, &str)] = &[("blocks", part)];
        systems
            .each_ref()
            .map(|s| metric(outcome, w, s, params, key).unwrap_or(0.0))
    };
    let device = get(&workloads[0], "growth", "device_blocks")[0];
    let mut growth = TextTable::new(vec![
        "Name",
        "Blocks (base)",
        "Blocks (IDA)",
        "Increase % of device",
        "Increase % of workload",
    ]);
    let mut gc = TextTable::new(vec![
        "Name",
        "Erases base (early/late)",
        "Erases IDA (early/late)",
        "Increase % (early -> late)",
    ]);
    let pct = |[b, i]: [f64; 2]| if b == 0.0 { 0.0 } else { (i - b) / b * 100.0 };
    let (mut dev_sum, mut wl_sum, mut late_sum) = (0.0, 0.0, 0.0);
    for w in &workloads {
        let [base, ida] = get(w, "growth", "data_blocks");
        let [footprint, _] = get(w, "growth", "footprint_pages");
        let [per_block, _] = get(w, "growth", "pages_per_block");
        let dev_inc = (ida - base) / device * 100.0;
        let wl_inc = (ida - base) / (footprint / per_block) * 100.0;
        dev_sum += dev_inc;
        wl_sum += wl_inc;
        growth.row(vec![
            w.clone(),
            f(base, 0),
            f(ida, 0),
            f(dev_inc, 2),
            f(wl_inc, 1),
        ]);
        let (early, late) = (get(w, "gc", "early_erases"), get(w, "gc", "late_erases"));
        late_sum += pct(late);
        gc.row(vec![
            w.clone(),
            format!("{}/{}", f(early[0], 0), f(late[0], 0)),
            format!("{}/{}", f(early[1], 0), f(late[1], 0)),
            format!("{} -> {}", f(pct(early), 1), f(pct(late), 1)),
        ]);
    }
    let n = workloads.len() as f64;
    format!(
        "Section III-C — block usage and GC impact (device has {device:.0} blocks)\n\n\
         A. Data-holding block growth at paper footprints\n\n{}\n\
         Averages: +{:.2}% of device (paper: 2-4%), +{:.1}% of workload size (paper: 14-30%, avg 25%)\n\n\
         B. Erases under follow-on write-intensive traffic (full device)\n\n{}\n\
         Average late-window erase increase: {:.2}% (paper: up to 3%, shrinking over time)\n{}",
        growth.render(),
        dev_sum / n,
        wl_sum / n,
        gc.render(),
        late_sum / n,
        failed_note(outcome)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_grids_expand_to_the_paper_dimensions() {
        // Fig 8: 11 workloads × (1 baseline + 9 error rates).
        assert_eq!(builtin_grid("fig8").unwrap().len(), 11 * 10);
        // Fig 9: 11 workloads × 5 ΔtR points × (baseline + IDA-E20).
        assert_eq!(builtin_grid("fig9").unwrap().len(), 11 * 5 * 2);
        // Fig 10: 11 workloads × (baseline + IDA-E20).
        assert_eq!(builtin_grid("fig10").unwrap().len(), 11 * 2);
        // Fig 11: 11 workloads × 2 lifetime phases × (baseline + IDA-E20).
        assert_eq!(builtin_grid("fig11").unwrap().len(), 11 * 2 * 2);
        // Faults: 11 workloads × 4 fault levels × (baseline + IDA-E20).
        assert_eq!(builtin_grid("faults").unwrap().len(), 11 * 4 * 2);
        // Load: 11 workloads × 5 offered rates × (baseline + IDA-E20).
        assert_eq!(builtin_grid("load").unwrap().len(), 11 * 5 * 2);
        // Lifetime: 11 workloads × 2 aging levels × (baseline + IDA-E20).
        assert_eq!(builtin_grid("lifetime").unwrap().len(), 11 * 2 * 2);
        // Fig 4: (11 paper + 9 extra workloads) × baseline on TLC.
        assert_eq!(builtin_grid("fig4").unwrap().len(), 20);
        // Table IV: 11 workloads × IDA-E20 on TLC.
        assert_eq!(builtin_grid("table4").unwrap().len(), 11);
        // Table V and Fig 6: 11 workloads × (baseline + IDA-E20), MLC / QLC.
        assert_eq!(builtin_grid("table5").unwrap().len(), 11 * 2);
        assert_eq!(builtin_grid("fig6").unwrap().len(), 11 * 2);
        // Ablation: 11 workloads × 3 variants × (baseline + IDA-E20).
        assert_eq!(builtin_grid("ablation").unwrap().len(), 11 * 3 * 2);
        // Blocks: 4 workloads × 2 scenarios × (baseline + IDA-E20).
        assert_eq!(builtin_grid("blocks").unwrap().len(), 4 * 2 * 2);
        assert!(builtin_grid("fig99").is_none());
        for name in BUILTIN_GRIDS {
            assert!(builtin_grid(name).is_some(), "missing grid {name}");
        }
    }

    /// One cell of `system` at `variant`, as the variant grids expand it.
    fn variant_cell(system: &str, variant: &str) -> Cell {
        SweepSpec::new("ablation", vec!["proj_3".into()], vec![system.into()])
            .with_axis("variant", vec![variant.into()])
            .cells()
            .remove(0)
    }

    #[test]
    fn variant_configs_are_the_hand_edited_configs_with_cell_seeds() {
        // The reference is the configuration the single-config experiments
        // built by hand: `system_config` on the variant's geometry and
        // timing, plus its FTL edit. Only the warm seed may differ.
        use ida_snap::{Snap, Writer};
        let encode = |cfg: &SsdConfig| {
            let mut w = Writer::new();
            cfg.encode(&mut w);
            w.into_bytes()
        };
        let scale = ExperimentScale::smoke();
        for variant in ["tlc", "tlc232", "mlc", "qlc", "noplace"] {
            for system in [
                SystemUnderTest::Baseline,
                SystemUnderTest::Ida { error_rate: 0.2 },
            ] {
                let cell = variant_cell(&system.label(), variant);
                let (preset, cfg) = cell_config(&cell, &scale).unwrap();
                assert_eq!(preset.spec.name, "proj_3");
                let (geometry, timing) = match variant {
                    "mlc" => (
                        scale.geometry.with_bits_per_cell(2),
                        FlashTiming::paper_mlc(),
                    ),
                    "qlc" => (
                        scale.geometry.with_bits_per_cell(4),
                        FlashTiming::paper_tlc(),
                    ),
                    _ => (scale.geometry, FlashTiming::paper_tlc()),
                };
                let mut reference =
                    crate::runner::system_config(system, geometry, timing, RetryConfig::disabled());
                match variant {
                    "tlc232" => reference.ftl.coding = CodingVariant::Tlc232,
                    "noplace" => reference.ftl.lsb_placement = false,
                    _ => {}
                }
                assert_ne!(cfg.ftl.seed, reference.ftl.seed, "{variant}: cell seed");
                assert_eq!(cfg.ftl.seed, warm_seed_for(&cell));
                reference.ftl.seed = cfg.ftl.seed;
                assert!(
                    encode(&cfg) == encode(&reference),
                    "{variant}/{}: config differs from the hand-edited one",
                    system.label()
                );
            }
        }
        // A cell without the axis (every older grid) runs `tlc`, byte for
        // byte.
        let fig8 = SweepSpec::new("fig8", vec!["proj_3".into()], vec!["Baseline".into()]);
        let (_, plain) = cell_config(&fig8.cells()[0], &scale).unwrap();
        let (_, mut tlc) = cell_config(&variant_cell("Baseline", "tlc"), &scale).unwrap();
        tlc.ftl.seed = plain.ftl.seed;
        assert!(encode(&plain) == encode(&tlc));
        // A load cell warms as a standalone load run, and an aging cell as
        // a standalone soak, under the cell's warm seed.
        let axis_cell = |axis: &str, value: &str| {
            SweepSpec::new("cells", vec!["proj_3".into()], vec!["IDA-E20".into()])
                .with_axis(axis, vec![value.into()])
                .cells()
                .remove(0)
        };
        let system = SystemUnderTest::Ida { error_rate: 0.2 };
        for (axis, value, spares) in [("load", "140", 0), ("aging", "high", SOAK_SPARES_PER_PLANE)]
        {
            let cell = axis_cell(axis, value);
            let mut reference = crate::runner::system_config(
                system,
                scale.geometry,
                FlashTiming::paper_tlc(),
                RetryConfig::disabled(),
            );
            reference.ftl.seed = warm_seed_for(&cell);
            reference.ftl.spare_blocks_per_plane = spares;
            let (_, cfg) = cell_config(&cell, &scale).unwrap();
            assert!(encode(&cfg) == encode(&reference), "{}", cell.id());
        }
        // A malformed parameter is an error that names it.
        for (axis, value, named) in [
            ("variant", "slc", "unknown variant \"slc\""),
            ("dtr_us", "fast", "bad dtr_us parameter \"fast\""),
            ("phase", "midlife", "unknown phase \"midlife\""),
            ("phase", "lateX", "in phase \"lateX\""),
        ] {
            let err = cell_config(&axis_cell(axis, value), &scale).unwrap_err();
            assert!(err.contains(named), "{err}");
        }
        let blocks = builtin_grid("blocks").unwrap().cells();
        assert!(cell_config(&blocks[0], &scale).is_err());
    }

    #[test]
    fn paper_tables_follow_the_paper_workload_order() {
        let hm_1 = workload_names().iter().position(|w| w == "hm_1").unwrap();
        assert_eq!(
            TABLE4_PAPER.map(|column| column[hm_1]),
            [103.34, 51.24, 10.24]
        );
        assert_eq!(TABLE5_PAPER[hm_1], 7.8);
    }

    #[test]
    fn new_grids_render_from_one_workload() {
        // Each paper-artifact grid, sliced to its first workload at a few
        // hundred requests: every cell runs, the render shows the heading
        // and the workload's row, and variant payloads carry exact counts.
        let scale = ExperimentScale::smoke().with_requests(300);
        for (name, heading) in [
            ("fig4", "Figure 4 (left)"),
            ("table4", "Table IV"),
            ("table5", "Table V"),
            ("fig6", "Section V-G"),
            ("ablation", "LSB-slot placement"),
            ("blocks", "B. Erases"),
        ] {
            let mut spec = builtin_grid(name).unwrap();
            spec.workloads.truncate(1);
            let outcome = run_grid(&spec, &scale, &SweepConfig::serial().with_jobs(2)).unwrap();
            assert_eq!(outcome.failed_count(), 0, "{name}: {}", outcome.summary());
            let text = render(&outcome).unwrap();
            assert!(text.contains(heading), "{name}: no heading in\n{text}");
            assert!(text.contains("\nproj_1 "), "{name}: no row in\n{text}");
            for o in &outcome.outcomes {
                let payload = jsonv::parse(o.payload().unwrap()).unwrap();
                let variant = o.cell.param("variant").is_some();
                for object in ["breakdown", "refresh_overhead"] {
                    assert_eq!(payload.get(object).is_some(), variant, "{}", o.cell.id());
                }
            }
        }
    }

    #[test]
    fn phase_labels_parse_into_retry_configs() {
        assert_eq!(parse_phase("early", 1).unwrap(), RetryConfig::disabled());
        let late = parse_phase("late40", 1).unwrap();
        assert!((late.failure_prob - 0.4).abs() < 1e-9);
        assert!(late.max_retries > 0);
        // The seed is a pure function of the cell stream, not a constant.
        assert_eq!(late.seed, parse_phase("late40", 1).unwrap().seed);
        assert_ne!(late.seed, parse_phase("late40", 2).unwrap().seed);
        assert!(parse_phase("midlife", 1).is_err());
        assert!(parse_phase("lateX", 1).is_err());
    }

    #[test]
    fn fault_metrics_appear_in_the_payload() {
        let mut report = Report::default();
        report.ftl.injected_program_fails = 3;
        report.ftl.transient_read_faults = 4;
        report.ftl.recoveries = 1;
        let v = jsonv::parse(&metrics_json(&report)).unwrap();
        assert_eq!(v.get("injected_faults").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("recoveries").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("rejected_writes").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn system_labels_round_trip() {
        assert_eq!(parse_system("Baseline"), Ok(SystemUnderTest::Baseline));
        assert_eq!(
            parse_system("IDA-E20"),
            Ok(SystemUnderTest::Ida { error_rate: 0.2 })
        );
        for e in FIG8_ERROR_RATES {
            let label = SystemUnderTest::Ida { error_rate: e }.label();
            assert_eq!(
                parse_system(&label),
                Ok(SystemUnderTest::Ida { error_rate: e })
            );
        }
        assert!(parse_system("IDA-EX").is_err());
        assert!(parse_system("Turbo").is_err());
    }

    #[test]
    fn metrics_payload_has_the_renderer_keys() {
        let mut report = Report::default();
        report.reads.record(118_000);
        let json = metrics_json(&report);
        let v = jsonv::parse(&json).unwrap();
        for key in [
            "reads",
            "mean_read_ns",
            "p99_read_ns",
            "throughput_mbps",
            "throughput_mibps",
            "ida_reads",
        ] {
            assert!(v.get(key).is_some(), "missing {key} in {json}");
        }
        assert_eq!(v.get("mean_read_ns").unwrap().as_f64(), Some(118_000.0));
        // The attribution waterfall rides along for downstream analysis.
        let attr = v.get("attribution").expect("attribution object");
        assert!(attr.get("reads").is_some() && attr.get("writes").is_some());
    }
}
