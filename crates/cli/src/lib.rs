//! Library half of the `idasim` command-line driver.
//!
//! Kept as a library so the argument parsing and command dispatch are unit
//! testable; `main.rs` is a thin shell around [`run`].

pub mod args;

use crate::args::Opts;
use ida_bench::load::{
    load_metrics_json, nominal_iops, run_capacity, run_load, LoadSpec, CAPACITY_MAX_ITERS,
};
use ida_bench::runner::{
    footprint, normalized_read_response, replay_trace, run_system_obs, warm_cache_key,
    warmed_simulator, ExperimentScale, ObsOptions, ReplayMode, SystemUnderTest,
};
use ida_bench::soak::{run_soak, soak_metrics_json, soak_run_from_json};
use ida_bench::sweep::{
    builtin_grid, cell_config, parse_system, render, run_grid, run_grid_on, run_grid_worker,
    setup_json, Backend, BUILTIN_GRIDS,
};
use ida_bench::table::{f, TextTable};
use ida_obs::json::JsonObj;
use ida_snap::Snap;
use ida_ssd::Simulator;
use ida_sweep::{SweepConfig, SweepOutcome, SweepSpec};
use ida_workloads::stats::characterize;
use ida_workloads::suite::{paper_workload, paper_workloads, WorkloadPreset};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Default coordinator address for `serve`/`worker` when neither
/// `--listen` nor `--connect` is given: loopback, fixed port.
pub const DEFAULT_FABRIC_ADDR: &str = "127.0.0.1:7141";

/// How long a worker retries its initial connection — workers may be
/// launched moments before the coordinator binds its listener.
const FABRIC_CONNECT_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

/// A parsed command: its positional arguments, and every flag in
/// [`Opts`] (flags the subcommand does not accept keep their defaults).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the paper workloads: Table III, measured against the paper.
    List,
    /// Print the characteristics of one workload.
    Describe { workload: String },
    /// Compare baseline vs IDA on one workload.
    Compare { workload: String, opts: Opts },
    /// Run an experiment grid on the parallel sweep engine.
    Sweep { grid: String, opts: Opts },
    /// Coordinate a distributed sweep: serve cells to `idasim worker`
    /// processes and aggregate their results.
    Serve { grid: String, opts: Opts },
    /// Join a distributed sweep as a worker: claim and execute cells
    /// from an `idasim serve` coordinator.
    Worker { opts: Opts },
    /// Capture (`save`), replay (`restore`), or describe (`inspect`) a
    /// framed warm-state snapshot file.
    Snapshot {
        action: String,
        path: PathBuf,
        opts: Opts,
    },
    /// Soak one workload through a whole accelerated device lifetime
    /// (Baseline and IDA side by side) with per-epoch invariant checks.
    Soak { workload: String, opts: Opts },
    /// Drive one workload through the host frontend at a target offered
    /// rate (or bisect for the max sustainable rate at the SLO).
    Load { workload: String, opts: Opts },
    /// Replay an imported MSR Cambridge trace on both systems.
    Replay { msr: PathBuf, opts: Opts },
    /// Analyze a JSONL event trace (validate, attribute), or diff the
    /// `--diff` pair when `file` is absent.
    Trace { file: Option<PathBuf>, opts: Opts },
    /// Print usage.
    Help,
}

/// Parse command-line arguments (without the program name): one scan of
/// the subcommand's [`args::Row`], then the checks that tie its
/// positionals and flags together.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or malformed
/// values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(name) => name,
    };
    let row =
        args::row(name).ok_or_else(|| format!("unknown command: {name} (try `idasim help`)"))?;
    let (positionals, mut opts) = args::scan(row, &args[1..])?;
    let positional = |k: usize, what: &str| {
        positionals
            .get(k)
            .cloned()
            .ok_or_else(|| format!("{name} needs {what}"))
    };
    let a_workload = "a workload name (try `idasim list`)";
    let a_grid = format!("a grid name (one of: {})", BUILTIN_GRIDS.join(", "));
    Ok(match name {
        "list" => Command::List,
        "describe" => Command::Describe {
            workload: positional(0, a_workload)?,
        },
        "compare" => Command::Compare {
            workload: positional(0, a_workload)?,
            opts,
        },
        "sweep" => Command::Sweep {
            grid: positional(0, &a_grid)?,
            opts,
        },
        "serve" => Command::Serve {
            grid: positional(0, &a_grid)?,
            opts,
        },
        "worker" => Command::Worker { opts },
        "snapshot" => {
            let action = positionals
                .first()
                .filter(|a| matches!(a.as_str(), "save" | "restore" | "inspect"))
                .cloned()
                .ok_or("snapshot needs an action: save, restore, or inspect")?;
            let path = positional(1, "a file path after the action")?.into();
            if action == "save" && opts.workload.is_none() {
                return Err("snapshot save needs --workload (try `idasim list`)".into());
            }
            Command::Snapshot { action, path, opts }
        }
        "soak" => Command::Soak {
            workload: positional(0, a_workload)?,
            opts,
        },
        "load" => {
            let workload = positional(0, a_workload)?;
            // The bisection needs a positive floor at or below the
            // ceiling, so `--lo 0` fails without `--hi` too.
            if let Some(lo) = opts.lo {
                if lo == 0 || opts.hi.is_some_and(|hi| lo > hi) {
                    let hi = opts.hi.map_or("nominal x 4".into(), |hi| hi.to_string());
                    return Err(format!("bad capacity bracket [{lo}, {hi}]"));
                }
            }
            Command::Load { workload, opts }
        }
        "replay" => Command::Replay {
            msr: opts.msr.take().ok_or("replay needs --msr <trace.csv>")?,
            opts,
        },
        "trace" => {
            let file = positionals.first().map(PathBuf::from);
            match (&file, &opts.diff) {
                (None, None) => return Err("trace needs a trace file or --diff <a> <b>".into()),
                (Some(_), Some(_)) => {
                    return Err("trace takes either a trace file or --diff, not both".into())
                }
                _ => Command::Trace { file, opts },
            }
        }
        other => unreachable!("subcommand {other} has a row but no command"),
    })
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// Returns a message for unknown workloads.
pub fn run(cmd: Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => {
            out.push_str(USAGE);
        }
        Command::List => {
            out.push_str("Table III — workload characteristics (measured vs paper)\n\n");
            let mut header = vec!["Name"];
            for column in ["Read Ratio %", "Read Size KB", "Read Data %"] {
                header.extend([column, "(paper)"]);
            }
            let mut t = TextTable::new(header);
            for p in paper_workloads() {
                let s = characterize(&p.generate(60_000, 20_000));
                let mut row = vec![p.spec.name.clone()];
                for (measured, paper) in [
                    (s.read_ratio * 100.0, p.paper.read_ratio_pct),
                    (s.mean_read_kb, p.paper.read_kb),
                    (s.read_data_ratio * 100.0, p.paper.read_data_pct),
                ] {
                    row.extend([f(measured, 2), f(paper, 2)]);
                }
                t.row(row);
            }
            out.push_str(&t.render());
        }
        Command::Describe { workload } => {
            let p = lookup(&workload)?;
            let trace = p.generate(40_000, 10_000);
            let s = characterize(&trace);
            let _ = writeln!(out, "workload {workload}:");
            let _ = writeln!(
                out,
                "  read ratio      {:.2}% (paper {:.2}%)",
                s.read_ratio * 100.0,
                p.paper.read_ratio_pct
            );
            let _ = writeln!(
                out,
                "  mean read size  {:.2} KB (paper {:.2} KB)",
                s.mean_read_kb, p.paper.read_kb
            );
            let _ = writeln!(
                out,
                "  read data ratio {:.2}% (paper {:.2}%)",
                s.read_data_ratio * 100.0,
                p.paper.read_data_pct
            );
            let _ = writeln!(
                out,
                "  footprint       {:.1} MB ({}% of device)",
                s.footprint_mb,
                (p.footprint_frac * 100.0) as u32
            );
        }
        Command::Compare { workload, opts } => {
            let p = lookup(&workload)?;
            let requests = opts.requests.unwrap_or(6_000);
            let scale = ExperimentScale::default_scale().with_requests(requests);
            let obs = obs_options(&opts);
            let mut runs = Vec::new();
            for system in systems(opts.error_rate) {
                let run_obs = obs.suffixed(&system.label());
                runs.push(
                    run_system_obs(&p, system, &scale, &run_obs)
                        .map_err(|e| format!("observability output failed: {e}"))?,
                );
                wrote_lines(&mut out, &system.label(), &run_obs);
            }
            let ida = runs.pop().expect("two runs");
            let base = runs.pop().expect("two runs");
            let norm = normalized_read_response(&ida, &base);
            let _ = writeln!(out, "workload {workload}, {} requests:", requests);
            let _ = writeln!(
                out,
                "  baseline  mean read response {:9.1} us  (p99 {:9.1} us)",
                base.reads.mean_us(),
                base.reads.percentile(99.0) as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "  IDA-E{:<3.0} mean read response {:9.1} us  (p99 {:9.1} us)",
                opts.error_rate * 100.0,
                ida.reads.mean_us(),
                ida.reads.percentile(99.0) as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "  normalized: {norm:.3}  (read response improved by {:.1}%)",
                (1.0 - norm) * 100.0
            );
        }
        Command::Sweep { grid, opts } => {
            let spec = grid_spec(&grid)?;
            // Attached here, not left to run_grid, so its counters can be
            // printed.
            let cfg = sweep_config(&opts)?.with_warm_cache();
            let outcome =
                run_grid(&spec, &scale(&opts)?, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
            if let Some(cache) = cfg.warm_cache() {
                // stderr, like --progress: diagnostics never pollute the
                // machine-readable aggregate on stdout.
                eprintln!("{}", cache.stats_line(outcome.outcomes.len()));
            }
            let head = format!("sweep {grid} on {} worker(s)", cfg.jobs);
            write_aggregate(&mut out, &outcome, opts.out.as_deref(), &head)?;
        }
        Command::Serve { grid, opts } => {
            let spec = grid_spec(&grid)?;
            let cfg = sweep_config(&opts)?;
            let scale = scale(&opts)?;
            let listen = &opts.listen;
            let listener = std::net::TcpListener::bind(listen)
                .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
            // stderr, like fabric events: the aggregate owns stdout.
            eprintln!(
                "serving sweep {grid} on {listen}; join with: idasim worker --connect {listen}"
            );
            let backend = Backend::Distributed { listener };
            let outcome = run_grid_on(&spec, &scale, &cfg, backend)
                .map_err(|e| format!("serve failed: {e}"))?;
            let head = format!("sweep {grid} served on {listen}");
            write_aggregate(&mut out, &outcome, opts.out.as_deref(), &head)?;
        }
        Command::Worker { opts } => {
            // Same default ladder as local sweeps: IDA_JOBS, else all cores.
            let jobs = sweep_config(&opts)?.jobs;
            let report = run_grid_worker(&opts.connect, jobs, FABRIC_CONNECT_WAIT)
                .map_err(|e| format!("worker failed: {e}"))?;
            let _ = writeln!(
                out,
                "worker finished sweep {}: {} cell attempt(s) on {jobs} connection(s), {} ok, {} failed",
                report.sweep, report.ran, report.ok, report.failed
            );
        }
        Command::Snapshot { action, path, opts } => match action.as_str() {
            "save" => {
                let workload = opts
                    .workload
                    .clone()
                    .expect("parse_args requires --workload for save");
                lookup(&workload)?;
                let system = parse_system(&opts.system)?.label();
                // Warm exactly as this pair's fig8 cell does (the sweep's
                // own config, seed and cache key), so a saved snapshot is
                // byte-interchangeable with the sweep cache's image.
                let spec = SweepSpec::new("fig8", vec![workload.clone()], vec![system.clone()]);
                let scale = scale(&opts)?;
                let (preset, cfg) = cell_config(&spec.cells()[0], &scale)?;
                let key = warm_cache_key(&workload, &cfg, &scale);
                let (sim, _) = warmed_simulator(&preset, cfg, &scale, None);
                let requests = scale.requests as u64;
                let record: SnapshotRecord =
                    (workload.clone(), system.clone(), requests, sim.snapshot());
                let framed = ida_snap::frame::seal(&record.to_snap_bytes());
                let bytes = framed.len();
                write_file(&path, framed)?;
                let _ = writeln!(
                    out,
                    "saved warm state for {workload}/{system} (cache key {key:016x}, \
                     {bytes} bytes) to {}",
                    path.display()
                );
            }
            "restore" | "inspect" => {
                let buf = std::fs::read(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let (meta, payload) = ida_snap::frame::open(&buf)
                    .map_err(|e| format!("{} is not a valid snapshot: {e}", path.display()))?;
                let (saved_workload, saved_system, saved_requests, inner): SnapshotRecord =
                    Snap::from_snap_bytes(payload).map_err(|e| format!("corrupt snapshot: {e}"))?;
                let mut sim = Simulator::from_snapshot(&inner)
                    .map_err(|e| format!("snapshot failed to restore: {e}"))?;
                if action == "inspect" {
                    let g = sim.config().ftl.geometry;
                    let _ = writeln!(
                        out,
                        "snapshot {} (format v{}, payload {} bytes, hash {:016x})",
                        path.display(),
                        meta.version,
                        meta.payload_len,
                        meta.hash
                    );
                    let _ = writeln!(
                        out,
                        "  warm state: {saved_workload}/{saved_system}, \
                         {saved_requests} measured requests"
                    );
                    let _ = writeln!(
                        out,
                        "  geometry: {}ch x {}chip x {}die x {}pl x {}blk, {} bits/cell",
                        g.channels,
                        g.chips_per_channel,
                        g.dies_per_chip,
                        g.planes_per_die,
                        g.blocks_per_plane,
                        g.bits_per_cell
                    );
                    let _ = writeln!(
                        out,
                        "  clock: {} ns; exported pages: {}",
                        sim.now(),
                        sim.config().ftl.exported_pages()
                    );
                } else {
                    let preset = lookup(&saved_workload)?;
                    let requests = opts
                        .requests
                        .unwrap_or(usize::try_from(saved_requests).unwrap_or(0));
                    let footprint = footprint(&preset, sim.config().ftl.exported_pages());
                    let trace = preset.generate(footprint, requests);
                    sim.set_spans(true);
                    let report = sim.run(trace.records);
                    let _ = writeln!(
                        out,
                        "restored {saved_workload}/{saved_system}, replayed {requests} \
                         requests:"
                    );
                    let _ = writeln!(
                        out,
                        "  mean read response {:9.1} us  (p99 {:9.1} us)",
                        report.reads.mean_us(),
                        report.reads.percentile(99.0) as f64 / 1e3
                    );
                    let _ = writeln!(
                        out,
                        "  events processed {}, flash ops {}",
                        report.events_processed, report.flash_ops
                    );
                }
            }
            other => return Err(format!("unknown snapshot action: {other}")),
        },
        Command::Soak { workload, opts } => {
            lookup(&workload)?;
            let (level, epochs, scale) = (&opts.level, opts.epochs, scale(&opts)?);
            let mut cfg = sweep_config(&opts)?;
            // A journaled soak is reused only at the same scale and length.
            cfg.setup = JsonObj::new()
                .raw("scale", &setup_json(&scale))
                .u64("epochs", epochs as u64)
                .finish();
            // Two cells — Baseline and the IDA system — run through the
            // sweep engine, so parallelism, journaling, and byte-identical
            // aggregation come from the same machinery as `sweep`.
            let labels = systems(opts.error_rate).map(|s| s.label()).to_vec();
            let spec = SweepSpec::new("soak", vec![workload.clone()], labels)
                .with_axis("aging", vec![level.clone()]);
            let cells = spec.cells();
            let outcomes = ida_sweep::run_cells(&spec.name, &cells, &cfg, |cell| {
                let preset = paper_workload(&cell.workload)
                    .unwrap_or_else(|| panic!("unknown workload {}", cell.workload));
                let system = parse_system(&cell.system).unwrap_or_else(|e| panic!("{e}"));
                let lvl = cell
                    .param("aging")
                    .expect("soak cells carry an aging level");
                let run = run_soak(&preset, system, lvl, epochs, cell.stream_seed, &scale);
                soak_metrics_json(&run)
            })
            .map_err(|e| format!("soak failed: {e}"))?;
            let outcome = SweepOutcome {
                sweep: spec.name.clone(),
                outcomes,
            };
            let mut violations = 0usize;
            let mut failed = 0usize;
            for o in &outcome.outcomes {
                match o.payload() {
                    Some(payload) => {
                        let run = soak_run_from_json(&o.cell.workload, &o.cell.system, payload)?;
                        violations += run.violations.len();
                        out.push_str(&run.render_table());
                        out.push('\n');
                    }
                    None => {
                        failed += 1;
                        let _ = writeln!(out, "FAILED: {}\n", o.cell.id());
                    }
                }
            }
            // The run summary depends on `--jobs` and on the journal it
            // resumed, so it goes to stderr: stdout is a function of the
            // aggregate alone.
            eprintln!(
                "soak {workload} level {level}, {epochs} epoch(s) on {} worker(s): {}",
                cfg.jobs,
                outcome.summary()
            );
            if violations > 0 || failed > 0 {
                let _ = writeln!(
                    out,
                    "SOAK UNHEALTHY: {violations} invariant violation(s), {failed} failed cell(s)"
                );
            }
            if let Some(path) = &opts.out {
                write_file(path, outcome.aggregate_json() + "\n")?;
                eprintln!("wrote aggregate to {}", path.display());
            }
        }
        Command::Load { workload, opts } => {
            let p = lookup(&workload)?;
            let scale = scale(&opts)?;
            let (arrival, slo_us) = (opts.arrival, opts.slo_us);
            let slo_ns = slo_us * 1_000;
            let nominal = nominal_iops(&p.spec);
            let obs = obs_options(&opts);
            let json = if opts.capacity {
                let lo = opts.lo.unwrap_or((nominal / 4).max(1));
                let hi = opts.hi.unwrap_or(nominal * 4).max(lo);
                let _ = writeln!(
                    out,
                    "capacity search on {workload}: bracket [{lo}, {hi}] IOPS, \
                     p99 read SLO {slo_us} us, {} arrivals:",
                    arrival.label()
                );
                let mut doc = JsonObj::new()
                    .str("workload", &workload)
                    .u64("nominal_iops", nominal)
                    .u64("slo_p99_ns", slo_ns)
                    .u64("lo", lo)
                    .u64("hi", hi);
                for system in systems(opts.error_rate) {
                    let spec = LoadSpec {
                        slo_p99_ns: slo_ns,
                        ..LoadSpec::new(system, arrival, lo, opts.seed)
                    };
                    let r = run_capacity(&p, &spec, &scale, lo, hi, CAPACITY_MAX_ITERS)
                        .map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "  {:9} max sustainable {:6} IOPS  ({} probes)",
                        system.label(),
                        r.max_iops,
                        r.probes.len()
                    );
                    doc = doc.raw(&system.label(), &r.to_json());
                }
                doc.finish()
            } else {
                let offered = opts.iops.unwrap_or(nominal).max(1);
                let _ = writeln!(
                    out,
                    "workload {workload} at {offered} offered IOPS (nominal {nominal}), \
                     {} arrivals, {} tenant(s), {} admission:",
                    arrival.label(),
                    opts.tenants,
                    opts.admission.label()
                );
                let mut doc = JsonObj::new()
                    .str("workload", &workload)
                    .u64("offered_iops", offered)
                    .u64("nominal_iops", nominal);
                for system in systems(opts.error_rate) {
                    let spec = LoadSpec {
                        system,
                        arrival,
                        offered_iops: offered,
                        tenants: opts.tenants,
                        admission: opts.admission,
                        slo_p99_ns: slo_ns,
                        seed: opts.seed,
                    };
                    let run_obs = obs.suffixed(&system.label());
                    let run = run_load(&p, &spec, &scale, &run_obs).map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "  {:9} e2e read p99 {:9.1} us  achieved {:8.1} IOPS  \
                         shed {:4}  SLO({} us): {}",
                        system.label(),
                        run.read_p99_ns() as f64 / 1e3,
                        run.achieved_iops,
                        run.shed(),
                        slo_us,
                        if run.slo_met() { "met" } else { "MISSED" }
                    );
                    wrote_lines(&mut out, &system.label(), &run_obs);
                    doc = doc.raw(&system.label(), &load_metrics_json(&run));
                }
                doc.finish()
            };
            if let Some(path) = &opts.out {
                write_file(path, json + "\n")?;
                let _ = writeln!(out, "wrote load JSON to {}", path.display());
            }
        }
        Command::Replay { msr, opts } => {
            // A replay reads only the geometry and the refresh-period
            // fraction, which every scale shares.
            let scale = ExperimentScale::default_scale();
            let file = std::fs::File::open(&msr)
                .map_err(|e| format!("cannot read {}: {e}", msr.display()))?;
            let trace = ida_workloads::msr::parse_msr(
                std::io::BufReader::new(file),
                scale.geometry.page_size_bytes,
            )
            .map_err(|e| format!("cannot parse {}: {e}", msr.display()))?;
            if trace.records.is_empty() {
                return Err(format!("{} holds no records", msr.display()));
            }
            let mode = match opts.closed {
                None => ReplayMode::OpenLoop,
                Some(depth) => ReplayMode::ClosedLoop(depth),
            };
            let obs = obs_options(&opts);
            let _ = writeln!(
                out,
                "replaying {} ({} records, {})",
                msr.display(),
                trace.records.len(),
                match mode {
                    ReplayMode::OpenLoop => "open loop".to_string(),
                    ReplayMode::ClosedLoop(d) => format!("closed loop, depth {d}"),
                }
            );
            let mut reports = Vec::new();
            // The last system replays the parsed trace itself, not a copy.
            let [baseline, ida] = systems(opts.error_rate);
            for (system, trace) in [(baseline, trace.clone()), (ida, trace)] {
                let run_obs = obs.suffixed(&system.label());
                let report = replay_trace(trace, system, &scale, mode, &run_obs)
                    .map_err(|e| format!("replay failed: {e}"))?;
                let _ = writeln!(
                    out,
                    "  {:9} mean read response {:9.1} us  (p99 {:9.1} us, {:.1} MB/s)",
                    system.label(),
                    report.reads.mean_us(),
                    report.reads.percentile(99.0) as f64 / 1e3,
                    report.throughput_mbps()
                );
                reports.push(report);
            }
            let ida = reports.pop().expect("two runs");
            let base = reports.pop().expect("two runs");
            let norm = normalized_read_response(&ida, &base);
            let _ = writeln!(
                out,
                "  normalized: {norm:.3}  (read response improved by {:.1}%)",
                (1.0 - norm) * 100.0
            );
        }
        Command::Trace { file, opts } => {
            let text = match (file, opts.diff) {
                (Some(path), None) if opts.validate => ida_bench::analyze::validate(&path)?,
                (Some(path), None) => ida_bench::analyze::report(&path, opts.top)?,
                (None, Some((a, b))) => ida_bench::analyze::diff(&a, &b)?,
                // parse_args guarantees exactly one mode.
                _ => unreachable!("trace mode validated at parse time"),
            };
            out.push_str(&text);
        }
    }
    Ok(out)
}

/// What a snapshot file frames: the workload, the system label, the
/// measured request count and the warm simulator's image.
type SnapshotRecord = (String, String, u64, Vec<u8>);

/// The paper workload called `workload`.
fn lookup(workload: &str) -> Result<WorkloadPreset, String> {
    paper_workload(workload)
        .ok_or_else(|| format!("unknown workload {workload} (try `idasim list`)"))
}

/// The two systems every comparison runs: Baseline, then IDA at
/// `error_rate`.
fn systems(error_rate: f64) -> [SystemUnderTest; 2] {
    [
        SystemUnderTest::Baseline,
        SystemUnderTest::Ida { error_rate },
    ]
}

/// The experiment scale: `--smoke`, else `IDA_SCALE`/`IDA_REQUESTS`;
/// then `--requests` wins.
fn scale(opts: &Opts) -> Result<ExperimentScale, String> {
    let scale = if opts.smoke {
        ExperimentScale::smoke()
    } else {
        ExperimentScale::from_env()?
    };
    Ok(match opts.requests {
        Some(r) => scale.with_requests(r),
        None => scale,
    })
}

/// The sweep engine's configuration: `IDA_JOBS` supplies the worker
/// count, explicit flags win.
fn sweep_config(opts: &Opts) -> Result<SweepConfig, String> {
    let mut cfg = SweepConfig::from_env()?;
    cfg.jobs = opts.jobs.unwrap_or(cfg.jobs);
    cfg.journal = opts.journal.clone();
    cfg.progress = opts.progress;
    Ok(cfg)
}

/// The observability flags.
fn obs_options(opts: &Opts) -> ObsOptions {
    ObsOptions {
        trace_out: opts.trace_out.clone(),
        metrics_json: opts.metrics_json.clone(),
        progress: opts.progress,
        trace_filter: opts.trace_filter.clone(),
    }
}

/// The built-in grid called `grid`.
fn grid_spec(grid: &str) -> Result<SweepSpec, String> {
    builtin_grid(grid).ok_or_else(|| {
        format!(
            "unknown sweep grid {grid} (one of: {})",
            BUILTIN_GRIDS.join(", ")
        )
    })
}

/// Emit a grid's aggregate. With `--out` the JSON goes to the file,
/// stdout gets the rendered figure table alone (a function of the
/// aggregate, whatever the worker count or journal history) and stderr
/// a `{head}: {summary}` line and the path; without it the
/// machine-readable JSON goes to stdout.
fn write_aggregate(
    out: &mut String,
    outcome: &SweepOutcome,
    path: Option<&Path>,
    head: &str,
) -> Result<(), String> {
    let json = outcome.aggregate_json();
    match path {
        Some(path) => {
            write_file(path, json + "\n")?;
            out.push_str(&render(outcome)?);
            eprintln!(
                "{head}: {}\nwrote aggregate to {}",
                outcome.summary(),
                path.display()
            );
        }
        None => {
            out.push_str(&json);
            out.push('\n');
        }
    }
    Ok(())
}

/// The `wrote <label> trace|metrics to <path>` lines of one run's output
/// files.
fn wrote_lines(out: &mut String, label: &str, obs: &ObsOptions) {
    for (what, path) in [("trace", &obs.trace_out), ("metrics", &obs.metrics_json)] {
        if let Some(path) = path {
            let _ = writeln!(out, "wrote {label} {what} to {}", path.display());
        }
    }
}

fn write_file(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Usage text.
pub const USAGE: &str = "\
idasim — IDA-coding SSD simulator driver

USAGE:
  idasim list
  idasim describe <workload>
  idasim compare <workload> [--error-rate 0.2] [--requests 6000]
                 [--trace-out <path.jsonl>] [--metrics-json <path.json>]
                 [--trace-filter <class,...>] [--progress]
  idasim sweep <grid> [--jobs N] [--journal <path.jsonl>]
               [--out <path.json>] [--smoke] [--requests N] [--progress]
  idasim serve <grid> [--listen 127.0.0.1:7141] [--journal <path.jsonl>]
               [--out <path.json>] [--smoke] [--requests N]
  idasim worker [--connect 127.0.0.1:7141] [--jobs N]
  idasim snapshot save <file.snap> --workload <name> [--system Baseline]
                  [--smoke] [--requests N]
  idasim snapshot restore|inspect <file.snap> [--requests N]
  idasim soak <workload> [--level off|low|mid|high] [--epochs N]
              [--error-rate 0.2] [--jobs N] [--journal <path.jsonl>]
              [--out <path.json>] [--smoke] [--requests N] [--progress]
  idasim load <workload> [--iops N] [--arrival poisson|constant|onoff]
              [--tenants N] [--admission shed|delay] [--slo-us 2000]
              [--capacity] [--lo N] [--hi N] [--error-rate 0.2]
              [--requests N] [--smoke] [--seed N] [--out <path.json>]
              [--trace-out <path.jsonl>] [--trace-filter <class,...>]
  idasim replay --msr <trace.csv> [--closed <depth>] [--error-rate 0.2]
                [--trace-out <path.jsonl>] [--metrics-json <path.json>]
                [--progress]
  idasim trace <trace.jsonl> [--validate] [--top K]
  idasim trace --diff <baseline.jsonl> <other.jsonl>

Observability (compare): --trace-out writes the run's event stream as
JSONL and --metrics-json writes the full report (latency histograms,
counters, gauges) as JSON; both get a per-system suffix, e.g.
trace.jsonl -> trace.Baseline.jsonl. --trace-filter keeps only the
listed event classes (host, ftl, gc, refresh, fault, span).
--progress reports on stderr.

Trace: analyzes a JSONL trace written by --trace-out. The default
report validates the stream (schema, timestamp monotonicity, span
conservation), then prints the per-phase latency attribution
waterfall, the top-K slowest reads with their phase breakdowns, and
per-die / per-channel utilization rebuilt from flash events.
--validate stops after validation. --diff compares two traces
phase-by-phase (totals, means, deltas) — e.g. a Baseline vs IDA-E20
pair from `idasim compare --trace-out`.

Soak: drives one workload through a whole accelerated device lifetime
(0 → rated P/E cycles across --epochs epochs, epoch 0 fresh) on both
Baseline and IDA-E<pct>, with the device-aging model armed at --level:
P/E-wear/read-disturb/retention RBER, the multi-step read-retry
ladder, background patrol scrub, and hot/cold wear-leveling. Between
epochs the clock jumps one patrol period (retention ages, scrub falls
due) and uniform background wear advances. After every epoch the
harness checks the FTL safety invariants (mapping consistency, no
acked-data loss, victim-index agreement, counter monotonicity, span
conservation) and prints a per-epoch waterfall; all epochs clean
means the soak passed. Output is byte-identical for any --jobs. The
`lifetime` sweep grid runs the full fresh-vs-aged table:
  idasim sweep lifetime --smoke

Sweep: runs a whole experiment grid (fig8, fig9, fig10, fig11,
faults, load, lifetime, fig4, table4, table5, fig6, ablation, blocks)
on the parallel orchestration engine. --jobs N (or IDA_JOBS) sets the
worker count, default all cores; aggregated output is byte-identical
for any worker count. Without --smoke, IDA_SCALE=smoke|full picks the
scale and IDA_REQUESTS=N the request count (--requests wins); a value
that does not parse is an error. --journal appends one checkpoint
record per finished cell; re-invoking with the same journal resumes,
re-running only incomplete cells. With --out the aggregate JSON goes
to the file, the figure table to stdout and the run summary to stderr;
without it the JSON goes to stdout. The faults grid injects
program/erase failures, transient read faults and power losses (levels
off/low/mid/high) and reports IDA's read benefit alongside the
recovery counters; fig11 compares the early and late (retry-heavy)
lifetime phases. Each unique warm-up runs once and every sibling cell
forks its in-memory snapshot (single-flight across workers); this
never changes the aggregate, and a hit/miss line goes to stderr.

Serve/worker: the distributed sweep fabric. `serve` coordinates a grid
without executing any cell itself: it owns the queue, the --journal,
and the aggregation, and hands cells to `idasim worker` processes over
TCP (frame-sealed messages, protocol-version handshake). Each claim
leases every queued cell of one workload, which the worker runs in
order with its own planned warm cache, so each unique warm-up runs once
per fabric and no snapshot crosses the wire. A worker killed mid-cell
has that cell requeued (bounded by the same retry budget local sweeps
use) and the cells it had not started handed back, and workers may
join or leave at any point. The aggregate is byte-identical to
`idasim sweep <grid> --jobs 1` on the same scale, whatever the worker
population did. Resuming a journaled serve re-runs only incomplete
cells — a fully journaled grid returns without waiting for any worker.
Two-worker loopback example:
  idasim serve faults --smoke --journal run/j.jsonl --out run/agg.json &
  idasim worker --jobs 1 & idasim worker --jobs 1 & wait

Snapshot: captures and replays framed warm-state images. `save` warms
one (workload, system) pair exactly as the sweep engine would (same
warm seed, same cache key — printed on save) and writes the framed
snapshot; `inspect` prints the frame header and device state without
running anything; `restore` forks a simulator from the file and
replays the measured trace on it, which must match a live warm-up
byte for byte.

Load: drives one workload through the multi-tenant host frontend at a
target offered rate (default the workload's nominal rate) on both
Baseline and IDA-E<pct>, reporting end-to-end read p99 (host queueing
included), achieved IOPS, and shed/delayed admission counters against
the --slo-us p99 target. --tenants deals the trace across N weighted
streams under deficit-round-robin dispatch; --admission picks what a
full queue does (shed drops, delay back-pressures). --capacity
bisects offered rate over [--lo, --hi] for the max sustainable IOPS
at the SLO instead; same seed gives byte-identical results. The
`load` sweep grid runs the full hockey-stick table:
  idasim sweep load --smoke

Replay: imports an MSR Cambridge CSV (Timestamp,Hostname,DiskNumber,
Type,Offset,Size,ResponseTime; http://iotta.snia.org/traces/388),
folds it onto the simulated device, and replays it on both systems —
open loop with the trace's own arrival times, or closed loop at
--closed queue depth. A malformed or unsorted trace is reported as an
error, never a panic.

Paper artifacts: `idasim list` prints Table III, and every figure
and table that runs the simulator is a sweep grid, rendered with the
paper's values alongside: fig4 (Figure 4), table4 (Table IV), table5
(Table V, MLC), fig6 (Figure 6 and the QLC run), fig8..fig11
(Figures 8-11), blocks (the block and GC costs of section III-C) and
ablation (the 2-3-2 coding and the LSB placement ablations), e.g.:
  idasim sweep table5 --smoke --out table5.json
";

#[cfg(test)]
mod tests {
    use super::*;
    use ida_bench::sweep::builtin_grid;
    use ida_host::{AdmissionPolicy, ArrivalSpec};
    use std::collections::BTreeSet;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ida-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_help_and_list() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["list"])).unwrap(), Command::List);
    }

    #[test]
    fn parses_compare_options() {
        let cmd = parse_args(&s(&[
            "compare",
            "proj_1",
            "--error-rate",
            "0.5",
            "--requests",
            "1000",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                workload: "proj_1".into(),
                opts: Opts {
                    error_rate: 0.5,
                    requests: Some(1000),
                    ..Opts::default()
                },
            }
        );
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse_args(&s(&[
            "compare",
            "hm_1",
            "--trace-out",
            "out/trace.jsonl",
            "--metrics-json",
            "out/metrics.json",
            "--progress",
        ]))
        .unwrap();
        match cmd {
            Command::Compare { opts, .. } => {
                assert_eq!(opts.trace_out, Some(PathBuf::from("out/trace.jsonl")));
                assert_eq!(opts.metrics_json, Some(PathBuf::from("out/metrics.json")));
                assert!(opts.progress);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&s(&["compare", "hm_1", "--trace-out"])).is_err());
    }

    #[test]
    fn parses_trace_filter_and_rejects_unknown_classes() {
        let cmd = parse_args(&s(&["compare", "hm_1", "--trace-filter", "host,span"])).unwrap();
        match cmd {
            Command::Compare { opts, .. } => {
                assert_eq!(opts.trace_filter.as_deref(), Some("host,span"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let err = parse_args(&s(&["compare", "hm_1", "--trace-filter", "host,bogus"])).unwrap_err();
        assert!(
            err.contains("unknown trace class") && err.contains("bogus"),
            "unhelpful error: {err}"
        );
        assert!(parse_args(&s(&["compare", "hm_1", "--trace-filter"])).is_err());
    }

    #[test]
    fn parses_trace_command_modes() {
        assert_eq!(
            parse_args(&s(&["trace", "t.jsonl", "--validate", "--top", "3"])).unwrap(),
            Command::Trace {
                file: Some(PathBuf::from("t.jsonl")),
                opts: Opts {
                    validate: true,
                    top: 3,
                    ..Opts::default()
                },
            }
        );
        assert_eq!(
            parse_args(&s(&["trace", "--diff", "a.jsonl", "b.jsonl"])).unwrap(),
            Command::Trace {
                file: None,
                opts: Opts {
                    diff: Some((PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl"))),
                    ..Opts::default()
                },
            }
        );
        // Exactly one of <file> / --diff.
        assert!(parse_args(&s(&["trace"])).is_err());
        assert!(parse_args(&s(&["trace", "t.jsonl", "--diff", "a", "b"])).is_err());
        assert!(parse_args(&s(&["trace", "--diff", "a.jsonl"])).is_err());
        assert!(parse_args(&s(&["trace", "t.jsonl", "--bogus"])).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&s(&["describe"])).is_err());
        for unknown in ["frobnicate", "bench"] {
            let err = parse_args(&s(&[unknown])).unwrap_err();
            assert!(err.contains("unknown command"), "unhelpful error: {err}");
        }
        assert!(parse_args(&s(&["compare", "proj_1", "--error-rate", "2.0"])).is_err());
        assert!(parse_args(&s(&["compare", "proj_1", "--bogus"])).is_err());
        // list and describe go through the same scan as every other
        // subcommand, so they reject stray options too.
        for args in [
            &["list", "--bogus"][..],
            &["describe", "hm_1", "--bogus"],
            &["list", "hm_1"],
            &["sweep", "fig8", "--warm-cache"],
        ] {
            let err = parse_args(&s(args)).unwrap_err();
            assert!(err.starts_with("unknown option: "), "{args:?}: {err}");
        }
        assert_eq!(
            parse_args(&s(&["describe", "hm_1"])).unwrap(),
            Command::Describe {
                workload: "hm_1".into()
            }
        );
    }

    #[test]
    fn parses_sweep_options() {
        let cmd = parse_args(&s(&[
            "sweep",
            "fig8",
            "--jobs",
            "4",
            "--journal",
            "results/fig8.journal.jsonl",
            "--out",
            "results/fig8.json",
            "--smoke",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                grid: "fig8".into(),
                opts: Opts {
                    jobs: Some(4),
                    journal: Some(PathBuf::from("results/fig8.journal.jsonl")),
                    out: Some(PathBuf::from("results/fig8.json")),
                    smoke: true,
                    progress: true,
                    ..Opts::default()
                },
            }
        );
        let defaults = parse_args(&s(&["sweep", "fig9"])).unwrap();
        assert_eq!(
            defaults,
            Command::Sweep {
                grid: "fig9".into(),
                opts: Opts::default(),
            }
        );
    }

    #[test]
    fn parses_snapshot_options() {
        let cmd = parse_args(&s(&[
            "snapshot",
            "save",
            "warm.snap",
            "--workload",
            "proj_3",
            "--system",
            "IDA-E20",
            "--smoke",
            "--requests",
            "500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Snapshot {
                action: "save".into(),
                path: PathBuf::from("warm.snap"),
                opts: Opts {
                    workload: Some("proj_3".into()),
                    system: "IDA-E20".into(),
                    smoke: true,
                    requests: Some(500),
                    ..Opts::default()
                },
            }
        );
        let inspect = parse_args(&s(&["snapshot", "inspect", "warm.snap"])).unwrap();
        assert_eq!(
            inspect,
            Command::Snapshot {
                action: "inspect".into(),
                path: PathBuf::from("warm.snap"),
                opts: Opts::default(),
            }
        );
        // save without a workload, a bogus action, and a missing path all
        // fail at parse time.
        assert!(parse_args(&s(&["snapshot", "save", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "diff", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect", "--smoke"])).is_err());
    }

    fn snapshot(action: &str, path: &Path, opts: Opts) -> Result<String, String> {
        run(Command::Snapshot {
            action: action.into(),
            path: path.to_path_buf(),
            opts,
        })
    }

    #[test]
    fn snapshot_save_restore_inspect_round_trip() {
        let dir = scratch("snap");
        let path = dir.join("warm.snap");
        let smoke = Opts {
            smoke: true,
            ..Opts::default()
        };

        let saved = snapshot(
            "save",
            &path,
            Opts {
                workload: Some("proj_3".into()),
                requests: Some(300),
                ..smoke.clone()
            },
        )
        .unwrap();
        assert!(saved.contains("cache key"), "no cache key in: {saved}");
        assert!(path.exists());

        let inspected = snapshot("inspect", &path, smoke.clone()).unwrap();
        assert!(inspected.contains("proj_3/Baseline"), "{inspected}");
        assert!(inspected.contains("300 measured requests"), "{inspected}");
        assert!(inspected.contains("format v2"), "{inspected}");
        let head = inspected.lines().next().unwrap_or_default();
        assert!(
            head.ends_with("(format v2, payload 23277986 bytes, hash f11b4a4b0f8ee245)"),
            "{head}"
        );

        // Restoring runs the measured trace; twice gives identical output
        // (the file is read-only state, so each restore forks fresh).
        let r1 = snapshot("restore", &path, smoke.clone()).unwrap();
        let r2 = snapshot("restore", &path, smoke.clone()).unwrap();
        assert_eq!(r1, r2);
        assert!(r1.contains("replayed 300 requests"), "{r1}");
        assert_eq!(
            ida_snap::fnv1a(r1.as_bytes()),
            326_169_323_646_005_234,
            "restore's stdout moved: {r1}"
        );

        // A file in the version-1 layout is refused by its version.
        let bytes = std::fs::read(&path).unwrap();
        let mut old = bytes.clone();
        old[8] = 1;
        std::fs::write(&path, &old).unwrap();
        for action in ["inspect", "restore"] {
            let err = snapshot(action, &path, smoke.clone()).unwrap_err();
            assert!(err.contains("frame version 1, expected 2"), "{err}");
        }

        // A truncated file is rejected with a real error, not a panic.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        for action in ["inspect", "restore"] {
            let err = snapshot(action, &path, smoke.clone()).unwrap_err();
            assert!(
                err.contains("not a valid snapshot"),
                "unhelpful error: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_save_warms_as_the_fig8_cell_for_any_label_spelling() {
        let dir = scratch("snap-key");
        let scale = ExperimentScale::smoke().with_requests(200);
        let cell = builtin_grid("fig8")
            .unwrap()
            .cells()
            .into_iter()
            .find(|c| c.workload == "proj_3" && c.system == "IDA-E20")
            .expect("fig8 has a proj_3/IDA-E20 cell");
        let (_, cfg) = cell_config(&cell, &scale).unwrap();
        let key = format!("cache key {:016x}", warm_cache_key("proj_3", &cfg, &scale));
        for system in ["IDA-E20", "IDA-E20.0"] {
            let saved = snapshot(
                "save",
                &dir.join("w.snap"),
                Opts {
                    workload: Some("proj_3".into()),
                    system: system.into(),
                    smoke: true,
                    requests: Some(200),
                    ..Opts::default()
                },
            )
            .unwrap();
            assert!(saved.contains(&key), "{system}: want {key} in {saved}");
            assert!(saved.contains("proj_3/IDA-E20 "), "{system}: {saved}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_jobs_validation_rejects_zero_and_garbage() {
        let zero = parse_args(&s(&["sweep", "fig8", "--jobs", "0"])).unwrap_err();
        assert!(zero.contains("at least 1"), "unhelpful error: {zero}");
        let word = parse_args(&s(&["sweep", "fig8", "--jobs", "four"])).unwrap_err();
        assert!(word.contains("positive integer"), "unhelpful error: {word}");
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs", "-1"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs", "2.5"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--jobs"])).is_err());
        // The same validator guards IDA_JOBS (SweepConfig::from_env).
        assert!(ida_sweep::pool::parse_jobs("0").is_err());
        assert!(ida_sweep::pool::parse_jobs("8").is_ok());
    }

    #[test]
    fn sweep_needs_a_grid_name() {
        assert!(parse_args(&s(&["sweep"])).is_err());
        assert!(parse_args(&s(&["sweep", "--jobs", "2"])).is_err());
        assert!(parse_args(&s(&["sweep", "fig8", "--bogus"])).is_err());
        let err = run(Command::Sweep {
            grid: "fig99".into(),
            opts: Opts {
                jobs: Some(1),
                smoke: true,
                ..Opts::default()
            },
        })
        .unwrap_err();
        assert!(err.contains("unknown sweep grid"), "unhelpful error: {err}");
    }

    #[test]
    fn list_mentions_all_workloads() {
        let out = run(Command::List).unwrap();
        for name in ["proj_1", "usr_2", "stg_1"] {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(
            out.starts_with("Table III — workload characteristics (measured vs paper)\n"),
            "{out}"
        );
        assert!(out.contains("Read Ratio %  (paper)  Read Size KB"), "{out}");
    }

    #[test]
    fn describe_unknown_workload_errors() {
        assert!(run(Command::Describe {
            workload: "nope".into()
        })
        .is_err());
    }

    #[test]
    fn describe_prints_characteristics() {
        let out = run(Command::Describe {
            workload: "hm_1".into(),
        })
        .unwrap();
        assert!(out.contains("read ratio"));
        assert!(out.contains("footprint"));
    }

    #[test]
    fn load_parses_with_defaults_and_flags() {
        let cmd = parse_args(&s(&["load", "proj_3"])).unwrap();
        match cmd {
            Command::Load { workload, opts } => {
                assert_eq!(workload, "proj_3");
                assert!((opts.error_rate - 0.2).abs() < 1e-9);
                assert_eq!(opts.iops, None);
                assert_eq!(opts.arrival, ArrivalSpec::Poisson);
                assert_eq!(opts.tenants, 1);
                assert_eq!(opts.admission, AdmissionPolicy::Shed);
                assert_eq!(opts.slo_us, 2_000);
                assert!(!opts.capacity);
                assert_eq!(opts.seed, 0);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse_args(&s(&[
            "load",
            "hm_1",
            "--iops",
            "5000",
            "--arrival",
            "onoff",
            "--tenants",
            "3",
            "--admission",
            "delay",
            "--slo-us",
            "1500",
            "--capacity",
            "--lo",
            "100",
            "--hi",
            "9000",
            "--smoke",
            "--seed",
            "7",
            "--out",
            "load.json",
        ]))
        .unwrap();
        match cmd {
            Command::Load { opts, .. } => {
                assert_eq!(opts.iops, Some(5_000));
                assert_eq!(opts.arrival, ArrivalSpec::OnOff);
                assert_eq!(opts.tenants, 3);
                assert_eq!(opts.admission, AdmissionPolicy::Delay);
                assert_eq!(opts.slo_us, 1_500);
                assert!(opts.capacity && opts.smoke);
                assert_eq!((opts.lo, opts.hi), (Some(100), Some(9_000)));
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.out, Some(PathBuf::from("load.json")));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn load_rejects_bad_values_at_parse_time() {
        assert!(parse_args(&s(&["load"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--arrival", "chaotic"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--admission", "punt"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--tenants", "0"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--slo-us", "0"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--error-rate", "1.5"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--lo", "500", "--hi", "100"])).is_err());
        assert!(parse_args(&s(&["load", "proj_3", "--bogus"])).is_err());
        // A zero floor fails at parse time with or without --hi, instead of
        // reaching the capacity search's positive-floor assertion.
        for args in [
            &["load", "proj_3", "--capacity", "--lo", "0"][..],
            &["load", "proj_3", "--capacity", "--lo", "0", "--hi", "900"],
        ] {
            let err = parse_args(&s(args)).unwrap_err();
            assert!(err.starts_with("bad capacity bracket [0, "), "{err}");
        }
    }

    #[test]
    fn replay_parses_and_requires_the_msr_path() {
        let cmd = parse_args(&s(&["replay", "--msr", "hm_0.csv", "--closed", "32"])).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                msr: PathBuf::from("hm_0.csv"),
                opts: Opts {
                    closed: Some(32),
                    ..Opts::default()
                },
            }
        );
        assert!(parse_args(&s(&["replay"])).is_err());
        assert!(parse_args(&s(&["replay", "--msr", "t.csv", "--closed", "0"])).is_err());
        assert!(parse_args(&s(&["replay", "--closed", "8"])).is_err());
        assert!(parse_args(&s(&["replay", "--msr", "t.csv", "--bogus"])).is_err());
    }

    #[test]
    fn replay_reports_missing_files_as_errors() {
        let err = run(Command::Replay {
            msr: PathBuf::from("/nonexistent/trace.csv"),
            opts: Opts::default(),
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "unhelpful: {err}");
    }

    /// A small MSR Cambridge volume: 400 rows of mixed reads and writes,
    /// every 16th stamped before its predecessor (the raw traces are
    /// almost, but not exactly, time-ordered).
    fn msr_csv() -> String {
        let mut csv = String::new();
        let mut x: u64 = 0x1DA5;
        for i in 0..400u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let early = if i % 16 == 15 { 3_000 } else { 0 };
            let ts = 128_166_372_003_061_419 + i * 2_000 - early;
            let kind = if x >> 62 == 0 { "Write" } else { "Read" };
            let offset = (x >> 20) % 16_384 * 4_096;
            let size = 4_096 * (1 + (x >> 8) % 4);
            let _ = writeln!(csv, "{ts},hm,1,{kind},{offset},{size},{}", 100 + i);
        }
        csv
    }

    #[test]
    fn replay_of_an_msr_csv_reports_reads_and_is_deterministic() {
        let dir = scratch("msr");
        let msr = dir.join("vol.csv");
        std::fs::write(&msr, msr_csv()).unwrap();
        for (closed, want) in [
            (None, 1_070_030_376_952_655_509),
            (Some(8), 1_530_629_284_924_645_622),
        ] {
            let replay = || {
                run(Command::Replay {
                    msr: msr.clone(),
                    opts: Opts {
                        closed,
                        ..Opts::default()
                    },
                })
                .unwrap()
            };
            let out = replay();
            assert!(out.contains("(400 records, "), "{out}");
            for system in ["Baseline", "IDA-E20"] {
                let line = out
                    .lines()
                    .find(|l| l.trim_start().starts_with(system))
                    .unwrap_or_else(|| panic!("no {system} line in {out}"));
                let mean: f64 = line
                    .split("mean read response")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("no mean in {line}"));
                assert!(mean > 0.0, "{system} reported no reads: {line}");
            }
            assert_eq!(out, replay(), "replay {closed:?} is not deterministic");
            let masked = out.replace(&msr.display().to_string(), "vol.csv");
            assert_eq!(
                ida_snap::fnv1a(masked.as_bytes()),
                want,
                "replay {closed:?} stdout moved: {masked}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stdout of a `compare` and of a multi-tenant `load`, pinned
    /// byte for byte.
    #[test]
    fn compare_and_load_stdout_is_pinned() {
        for (args, want) in [
            (
                &["compare", "hm_1", "--requests", "300"][..],
                11_636_916_672_296_766_393,
            ),
            (
                &[
                    "load",
                    "proj_3",
                    "--iops",
                    "20000",
                    "--tenants",
                    "3",
                    "--smoke",
                    "--requests",
                    "300",
                ],
                8_416_056_051_605_887_442,
            ),
        ] {
            let out = run(parse_args(&s(args)).unwrap()).unwrap();
            assert_eq!(ida_snap::fnv1a(out.as_bytes()), want, "{args:?}: {out}");
        }
    }

    #[test]
    fn usage_covers_the_new_subcommands() {
        assert!(USAGE.contains("idasim load"));
        assert!(USAGE.contains("idasim replay --msr"));
        assert!(USAGE.contains("--capacity"));
        assert!(USAGE.contains("sweep load"));
        assert!(USAGE.contains("idasim soak"));
        assert!(USAGE.contains("sweep lifetime"));
        assert!(USAGE.contains("idasim serve"));
        assert!(USAGE.contains("idasim worker"));
        assert!(USAGE.contains("--connect"));
    }

    #[test]
    fn usage_names_every_builtin_grid() {
        // The grid list in USAGE is written by hand; it must stay the set
        // of grids the engine runs.
        let list = USAGE
            .split("Sweep: runs a whole experiment grid (")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .expect("USAGE lists the sweep grids");
        let named: BTreeSet<&str> = list
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|w| !w.is_empty())
            .collect();
        assert_eq!(named, BUILTIN_GRIDS.into_iter().collect());
    }

    #[test]
    fn usage_synopsis_and_flag_table_agree() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("USAGE has a synopsis block");
        for row in args::SUBCOMMANDS {
            // The row's `idasim <name> ...` lines and their continuations.
            let mut lines = 0;
            let mut documented = BTreeSet::new();
            let mut ours = false;
            for line in synopsis.lines() {
                if let Some(rest) = line.trim_start().strip_prefix("idasim ") {
                    ours = rest.split_whitespace().next() == Some(row.name);
                    lines += usize::from(ours);
                }
                if ours {
                    documented.extend(
                        line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                            .filter(|word| word.starts_with("--")),
                    );
                }
            }
            assert!(lines > 0, "{} has no USAGE synopsis", row.name);
            let accepted: BTreeSet<&str> = row.flags.split_whitespace().collect();
            assert_eq!(documented, accepted, "{}: USAGE vs flag table", row.name);
        }
    }

    #[test]
    fn serve_and_worker_parse_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&s(&["serve", "faults", "--smoke"])).unwrap(),
            Command::Serve {
                grid: "faults".into(),
                opts: Opts {
                    smoke: true,
                    ..Opts::default()
                },
            }
        );
        assert_eq!(Opts::default().listen, DEFAULT_FABRIC_ADDR);
        assert_eq!(
            parse_args(&s(&[
                "serve",
                "fig10",
                "--listen",
                "0.0.0.0:9000",
                "--journal",
                "j.jsonl",
                "--out",
                "agg.json",
                "--requests",
                "800",
            ]))
            .unwrap(),
            Command::Serve {
                grid: "fig10".into(),
                opts: Opts {
                    listen: "0.0.0.0:9000".into(),
                    journal: Some(PathBuf::from("j.jsonl")),
                    out: Some(PathBuf::from("agg.json")),
                    requests: Some(800),
                    ..Opts::default()
                },
            }
        );
        assert_eq!(
            parse_args(&s(&["worker"])).unwrap(),
            Command::Worker {
                opts: Opts::default()
            }
        );
        assert_eq!(Opts::default().connect, DEFAULT_FABRIC_ADDR);
        assert_eq!(
            parse_args(&s(&["worker", "--connect", "10.0.0.2:7141", "--jobs", "2"])).unwrap(),
            Command::Worker {
                opts: Opts {
                    connect: "10.0.0.2:7141".into(),
                    jobs: Some(2),
                    ..Opts::default()
                },
            }
        );
        // serve needs a grid; neither takes the other's flags.
        assert!(parse_args(&s(&["serve"])).unwrap_err().contains("grid"));
        assert!(parse_args(&s(&["serve", "faults", "--jobs", "2"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_args(&s(&["worker", "--listen", "x"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_args(&s(&["worker", "--connect"]))
            .unwrap_err()
            .contains("--connect needs an address"));
    }

    #[test]
    fn soak_parses_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&s(&["soak", "hm_1"])).unwrap(),
            Command::Soak {
                workload: "hm_1".into(),
                opts: Opts::default(),
            }
        );
        assert_eq!(Opts::default().level, "mid");
        assert_eq!(Opts::default().epochs, ida_bench::soak::SOAK_EPOCHS);
        let cmd = parse_args(&s(&[
            "soak",
            "proj_3",
            "--level",
            "high",
            "--epochs",
            "4",
            "--error-rate",
            "0.3",
            "--jobs",
            "2",
            "--journal",
            "soak.journal.jsonl",
            "--out",
            "soak.json",
            "--smoke",
            "--requests",
            "800",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Soak {
                workload: "proj_3".into(),
                opts: Opts {
                    level: "high".into(),
                    error_rate: 0.3,
                    epochs: 4,
                    jobs: Some(2),
                    journal: Some(PathBuf::from("soak.journal.jsonl")),
                    out: Some(PathBuf::from("soak.json")),
                    smoke: true,
                    requests: Some(800),
                    progress: true,
                    ..Opts::default()
                },
            }
        );
    }

    #[test]
    fn soak_rejects_bad_input_eagerly() {
        assert!(parse_args(&s(&["soak"])).is_err());
        assert!(parse_args(&s(&["soak", "--level", "mid"])).is_err());
        let err = parse_args(&s(&["soak", "hm_1", "--level", "molten"])).unwrap_err();
        assert!(err.contains("unknown aging level"), "unhelpful: {err}");
        assert!(err.contains("off, low, mid, high"), "unhelpful: {err}");
        assert!(parse_args(&s(&["soak", "hm_1", "--epochs", "0"])).is_err());
        assert!(parse_args(&s(&["soak", "hm_1", "--error-rate", "1.5"])).is_err());
        assert!(parse_args(&s(&["soak", "hm_1", "--bogus"])).is_err());
    }

    #[test]
    fn soak_smoke_runs_both_systems_with_clean_invariants() {
        let soak = |workload: &str, requests| {
            run(Command::Soak {
                workload: workload.into(),
                opts: Opts {
                    level: "high".into(),
                    epochs: 2,
                    jobs: Some(1),
                    smoke: true,
                    requests: Some(requests),
                    ..Opts::default()
                },
            })
        };
        let out = soak("hm_1", 600).unwrap();
        assert!(out.contains("Baseline"), "missing Baseline table: {out}");
        assert!(out.contains("IDA-E20"), "missing IDA table: {out}");
        assert!(
            out.contains("invariants: all epochs clean"),
            "invariants not clean: {out}"
        );
        assert!(!out.contains("SOAK UNHEALTHY"), "unhealthy soak: {out}");
        assert_eq!(
            ida_snap::fnv1a(out.as_bytes()),
            486_322_117_522_157_279,
            "the soak stdout moved: {out}"
        );
        // The run summary names the worker count, so it goes to stderr.
        assert!(!out.contains("worker(s)"), "summary on stdout: {out}");
        // Unknown workloads fail before any soaking.
        assert!(soak("nope", 100).is_err());
    }
}
