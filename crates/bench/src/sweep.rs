//! The `SweepSpec`-driven entry point onto the [`ida_sweep`] engine.
//!
//! This module is the bridge between the generic orchestration engine
//! and the paper's experiments: it defines the built-in grids (Figure 8,
//! Figure 9, Figure 10), knows how to execute one [`Cell`] as a full
//! warm-up → measure simulation, and renders aggregated outcomes into
//! the same tables the standalone experiment binaries print.
//!
//! Determinism: a cell's simulator seed is its
//! [`Cell::stream_seed`] — a pure function of the cell's coordinates —
//! and the workload generators are seeded by the preset, so a cell's
//! payload never depends on which worker ran it or in what order.
//! Panics inside a cell (unknown workload, malformed parameter) flow
//! into the engine's per-cell failure records instead of aborting the
//! whole sweep.

use crate::load::{
    load_config, load_metrics_json, nominal_iops, run_load_cached, LoadSpec, LOAD_PCTS,
};
use crate::runner::{
    prefix_cache_key, run_config_faulted_cached, try_system_config, warm_cache_key,
    ExperimentScale, ReplayMode, SystemUnderTest, WARM_SEED_BASE,
};
use crate::soak::{run_soak_cached, soak_config, soak_metrics_json, SOAK_EPOCHS};
use crate::table::{f, TextTable};
use ida_faults::FaultConfig;
use ida_flash::timing::FlashTiming;
use ida_host::ArrivalSpec;
use ida_obs::json::JsonObj;
use ida_ssd::retry::RetryConfig;
use ida_ssd::{Report, SsdConfig};
use ida_sweep::{
    derive_stream_seed, jsonv, Cell, SweepConfig, SweepOutcome, SweepSpec, WarmCache, WarmTier,
};
use ida_workloads::suite::{paper_workload, paper_workloads, WorkloadPreset};
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

/// The names [`builtin_grid`] understands.
pub const BUILTIN_GRIDS: [&str; 7] = [
    "fig8", "fig9", "fig10", "fig11", "faults", "load", "lifetime",
];

fn workload_names() -> Vec<String> {
    paper_workloads().into_iter().map(|p| p.spec.name).collect()
}

fn ida_label(error_rate: f64) -> String {
    SystemUnderTest::Ida { error_rate }.label()
}

/// The grid behind a built-in sweep name (`fig8`, `fig9`, `fig10`).
pub fn builtin_grid(name: &str) -> Option<SweepSpec> {
    let workloads = workload_names();
    match name {
        "fig8" => {
            let mut systems = vec!["Baseline".to_string()];
            systems.extend(FIG8_ERROR_RATES.iter().map(|&e| ida_label(e)));
            Some(SweepSpec::new("fig8", workloads, systems))
        }
        "fig9" => Some(
            SweepSpec::new("fig9", workloads, vec!["Baseline".into(), ida_label(0.2)]).with_axis(
                "dtr_us",
                FIG9_DELTA_TR_US.iter().map(|d| d.to_string()).collect(),
            ),
        ),
        "fig10" => Some(
            SweepSpec::new("fig10", workloads, vec!["Baseline".into(), ida_label(0.2)])
                .with_axis("replay", vec![format!("qd{FIG10_QUEUE_DEPTH}")]),
        ),
        "fig11" => Some(
            SweepSpec::new("fig11", workloads, vec!["Baseline".into(), ida_label(0.2)]).with_axis(
                "phase",
                vec![
                    "early".into(),
                    format!("late{:.0}", FIG11_LATE_FAILURE_PROB * 100.0),
                ],
            ),
        ),
        "faults" => Some(
            SweepSpec::new("faults", workloads, vec!["Baseline".into(), ida_label(0.2)])
                .with_axis("faults", FaultConfig::LEVELS.map(String::from).to_vec()),
        ),
        "load" => Some(
            SweepSpec::new("load", workloads, vec!["Baseline".into(), ida_label(0.2)])
                .with_axis("load", LOAD_PCTS.iter().map(|p| p.to_string()).collect()),
        ),
        "lifetime" => Some(
            SweepSpec::new(
                "lifetime",
                workloads,
                vec!["Baseline".into(), ida_label(0.2)],
            )
            .with_axis("aging", LIFETIME_LEVELS.map(String::from).to_vec()),
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

/// The axes excluded from a cell's warm identity: everything on this
/// list is armed or applied *after* warm-up, so cells differing only
/// here share a bit-identical warm-up (and one snapshot). `dtr_us` and
/// `phase` stay in the identity — timing and retry configuration ride
/// inside the [`ida_ssd::SsdConfig`] the cache key fingerprints, so
/// excluding them would not widen sharing anyway.
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

/// Execute one cell: look up the workload, configure the system under
/// test with the cell's warm-phase seed, run the warm-up → measure
/// protocol, and render the metrics payload.
///
/// The optional warm-state cache only changes *when* warm-ups execute,
/// never what any cell computes: the warm-phase seed is applied
/// unconditionally (cache on or off), and a hit restores byte-identical
/// simulator state.
///
/// # Panics
///
/// Panics on unknown workloads, system labels, or malformed parameters —
/// the engine catches these as per-cell failures.
pub fn run_cell_cached(cell: &Cell, scale: &ExperimentScale, warm: Option<&WarmCache>) -> String {
    let preset = cell_preset(cell).unwrap_or_else(|e| panic!("{e}"));
    let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
    let warm_seed = warm_seed_for(cell);
    if let Some(pct) = cell.param("load") {
        let pct: u64 = pct
            .parse()
            .unwrap_or_else(|_| panic!("bad load parameter {pct:?} (expected a percentage)"));
        let offered = (nominal_iops(&preset.spec) * pct / 100).max(1);
        let spec = LoadSpec::new(system, ArrivalSpec::Poisson, offered, cell.stream_seed);
        let run = run_load_cached(&preset, &spec, scale, warm_seed, warm)
            .unwrap_or_else(|e| panic!("{e}"));
        return load_metrics_json(&run);
    }
    if let Some(level) = cell.param("aging") {
        let run = run_soak_cached(
            &preset,
            system,
            level,
            SOAK_EPOCHS,
            cell.stream_seed,
            warm_seed,
            scale,
            warm,
        );
        return soak_metrics_json(&run);
    }
    let cfg = grid_config(cell, system, scale).unwrap_or_else(|e| panic!("{e}"));
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
    let report = run_config_faulted_cached(&preset, cfg, scale, mode, faults, warm);
    metrics_json(&report)
}

fn cell_preset(cell: &Cell) -> Result<WorkloadPreset, String> {
    paper_workload(&cell.workload).ok_or_else(|| format!("unknown workload {}", cell.workload))
}

/// The warm-up configuration of a cell measured by replaying its trace
/// (every grid but `load` and `lifetime`): the paper's TLC timing with
/// the cell's ΔtR, its lifetime phase's retry model, fault spares when a
/// fault plan will be armed, and the warm-phase seed.
fn grid_config(
    cell: &Cell,
    system: SystemUnderTest,
    scale: &ExperimentScale,
) -> Result<SsdConfig, String> {
    let mut timing = FlashTiming::paper_tlc();
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
    let mut cfg = try_system_config(system, scale.geometry, timing, retry)?;
    cfg.ftl.seed = warm_seed_for(cell);
    if cell.param("faults").is_some() {
        cfg.ftl.spare_blocks_per_plane = FAULT_SPARES_PER_PLANE;
    }
    Ok(cfg)
}

/// The configuration `cell` warms up under — exactly what
/// [`run_cell_cached`] hands the warm cache — with its workload, or why
/// the cell cannot run.
///
/// # Errors
///
/// An unknown workload or system label, or a malformed parameter.
pub fn warm_config(
    cell: &Cell,
    scale: &ExperimentScale,
) -> Result<(WorkloadPreset, SsdConfig), String> {
    let preset = cell_preset(cell)?;
    let system = parse_system(&cell.system)?;
    let cfg = if cell.param("load").is_some() {
        load_config(system, scale, warm_seed_for(cell))?
    } else if cell.param("aging").is_some() {
        soak_config(system, scale, warm_seed_for(cell))?
    } else {
        grid_config(cell, system, scale)?
    };
    Ok((preset, cfg))
}

/// Tell `cache` how often each warm image will be asked for when `cells`
/// run: one request per cell for its full warm state, and one prefix
/// request per distinct full warm state (only the build of a full state
/// reads its prefix). Cells whose configuration does not parse are
/// skipped — they fail before reaching the cache.
fn plan_warm_cache<'a>(
    cache: &WarmCache,
    cells: impl IntoIterator<Item = &'a Cell>,
    scale: &ExperimentScale,
) {
    let mut full: BTreeMap<u64, u64> = BTreeMap::new();
    let mut prefixes: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for cell in cells {
        let Ok((preset, cfg)) = warm_config(cell, scale) else {
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
/// is configured), and collect the outcome.
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
    let outcomes = match backend {
        Backend::Local => {
            if let Some(cache) = cfg.warm_cache() {
                let pending = ida_sweep::pending_cells(&spec.name, &cells, cfg)?;
                plan_warm_cache(cache, pending, scale);
            }
            ida_sweep::run_cells(&spec.name, &cells, cfg, |cell| {
                run_cell_cached(cell, scale, cfg.warm_cache())
            })?
        }
        Backend::Distributed { listener } => ida_sweep::net::serve(
            &spec.name,
            &cells,
            cfg,
            &setup_json(scale),
            listener,
            |ev| eprintln!("{}", ev.to_json_line()),
        )?,
    };
    Ok(SweepOutcome {
        sweep: spec.name.clone(),
        outcomes,
    })
}

/// The coordinator→worker experiment-setup payload: the scale knobs a
/// worker needs to execute cells byte-identically to a local run. The
/// geometry never travels — every built-in scale uses the workspace's
/// scaled-8GB device, so only the trace knobs vary.
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
    let warm = WarmCache::new(None);
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
}

/// The normalized-ratio table shared by the figure renderers: one row
/// per workload with each column's ratio (`1.0` where a cell is missing
/// or Baseline is zero), then an AVERAGE row. Returns the table and the
/// column means.
fn ratio_table(outcome: &SweepOutcome, cols: &[Ratio]) -> (TextTable, Vec<f64>) {
    let workloads = workload_names();
    let mut header = vec!["Name".to_string()];
    header.extend(cols.iter().map(|c| c.label.clone()));
    let mut t = TextTable::new(header);
    let mut sums = vec![0.0; cols.len()];
    for w in &workloads {
        let mut row = vec![w.clone()];
        for (col, sum) in cols.iter().zip(&mut sums) {
            let params: Vec<(&str, &str)> =
                col.param.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let base = metric(outcome, w, "Baseline", &params, col.key).unwrap_or(0.0);
            let norm = match metric(outcome, w, &col.system, &params, col.key) {
                Some(ida) if base > 0.0 => ida / base,
                _ => 1.0,
            };
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
        assert!(builtin_grid("fig99").is_none());
        for name in BUILTIN_GRIDS {
            assert!(builtin_grid(name).is_some(), "missing grid {name}");
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
