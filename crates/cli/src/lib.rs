//! Library half of the `idasim` command-line driver.
//!
//! Kept as a library so the argument parsing and command dispatch are unit
//! testable; `main.rs` is a thin shell around [`run`].

pub mod args;

use crate::args::CommonArgs;
use ida_bench::load::{
    load_metrics_json, nominal_iops, run_capacity, run_load_obs, LoadSpec, CAPACITY_MAX_ITERS,
};
use ida_bench::runner::{
    normalized_read_response, replay_trace, run_system_obs, system_config, to_host_ops,
    warm_cache_key, warmed_simulator, ExperimentScale, ObsOptions, ReplayMode, SystemUnderTest,
    WARM_SEED_BASE,
};
use ida_bench::soak::{run_soak, soak_metrics_json, soak_run_from_json};
use ida_bench::sweep::{
    builtin_grid, parse_system, render, run_grid, run_grid_on, run_grid_worker, Backend,
    BUILTIN_GRIDS,
};
use ida_flash::timing::FlashTiming;
use ida_host::{AdmissionPolicy, ArrivalSpec};
use ida_obs::json::JsonObj;
use ida_ssd::retry::RetryConfig;
use ida_ssd::Simulator;
use ida_sweep::{derive_stream_seed, SweepConfig};
use ida_sweep::{SweepOutcome, SweepSpec};
use ida_workloads::stats::characterize;
use ida_workloads::suite::{paper_workload, paper_workloads};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Default coordinator address for `serve`/`worker` when neither
/// `--listen` nor `--connect` is given: loopback, fixed port.
pub const DEFAULT_FABRIC_ADDR: &str = "127.0.0.1:7141";

/// How long a worker retries its initial connection — workers may be
/// launched moments before the coordinator binds its listener.
const FABRIC_CONNECT_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available workloads.
    List,
    /// Print the characteristics of one workload.
    Describe {
        /// Workload name.
        workload: String,
    },
    /// Compare baseline vs IDA on one workload.
    Compare {
        /// Workload name.
        workload: String,
        /// Voltage-adjustment error rate (0.0–1.0).
        error_rate: f64,
        /// Host requests in the measured trace.
        requests: usize,
        /// Write each run's event trace as JSONL (per-system suffix added).
        trace_out: Option<PathBuf>,
        /// Write each run's metrics report as JSON (per-system suffix added).
        metrics_json: Option<PathBuf>,
        /// Comma-separated event classes to keep in the trace.
        trace_filter: Option<String>,
        /// Report run progress on stderr.
        progress: bool,
    },
    /// Run an experiment grid on the parallel sweep engine.
    Sweep {
        /// Grid name (`fig8`, `fig9`, `fig10`, `fig11`, `faults`,
        /// `load`, `lifetime`).
        grid: String,
        /// Worker threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout gets the rendered
        /// table); without it the JSON itself goes to stdout.
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
        /// Report per-cell progress (with ETA) on stderr.
        progress: bool,
        /// Share warm-up state across cells: run each unique warm-up
        /// once, fork the rest from its snapshot (output is unchanged).
        warm_cache: bool,
    },
    /// Coordinate a distributed sweep: serve cells to `idasim worker`
    /// processes and aggregate their results.
    Serve {
        /// Grid name (same set as `sweep`).
        grid: String,
        /// Listen address, e.g. `127.0.0.1:7141`.
        listen: String,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout gets the rendered
        /// table); without it the JSON itself goes to stdout.
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
    },
    /// Join a distributed sweep as a worker: claim and execute cells
    /// from an `idasim serve` coordinator.
    Worker {
        /// Coordinator address to connect to.
        connect: String,
        /// Worker connections/threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
    },
    /// Capture, replay, or describe a framed warm-state snapshot.
    Snapshot {
        /// `save`, `restore`, or `inspect`.
        action: String,
        /// Snapshot file path.
        path: PathBuf,
        /// Workload name (required by `save`).
        workload: Option<String>,
        /// System under test (`Baseline` or an IDA variant).
        system: String,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count.
        requests: Option<usize>,
    },
    /// Soak one workload through a whole accelerated device lifetime
    /// (Baseline and IDA side by side) with per-epoch invariant checks.
    Soak {
        /// Workload name.
        workload: String,
        /// Aging level (`off`, `low`, `mid`, `high`).
        level: String,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Accelerated-lifetime epochs (epoch 0 is fresh).
        epochs: usize,
        /// Worker threads (`None` = `IDA_JOBS` or all cores).
        jobs: Option<usize>,
        /// Checkpoint journal path (resume skips journaled cells).
        journal: Option<PathBuf>,
        /// Write the aggregated JSON here (stdout keeps the tables).
        out: Option<PathBuf>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Override the measured request count per epoch.
        requests: Option<usize>,
        /// Report per-cell progress on stderr.
        progress: bool,
    },
    /// Drive one workload through the host frontend at a target offered
    /// rate (or bisect for the max sustainable rate at the SLO).
    Load {
        /// Workload name.
        workload: String,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Offered rate in IOPS (`None` = the workload's nominal rate).
        iops: Option<u64>,
        /// Arrival shape (`constant`, `poisson`, `onoff`).
        arrival: String,
        /// Tenant streams the trace is dealt across.
        tenants: u32,
        /// Full-queue admission policy (`shed`, `delay`).
        admission: String,
        /// Read p99 SLO target, µs.
        slo_us: u64,
        /// Override the measured request count.
        requests: Option<usize>,
        /// Use the smoke-test scale.
        smoke: bool,
        /// Bisect for max sustainable IOPS instead of one load point.
        capacity: bool,
        /// Capacity-search bracket floor, IOPS (`None` = nominal / 4).
        lo: Option<u64>,
        /// Capacity-search bracket ceiling, IOPS (`None` = nominal × 4).
        hi: Option<u64>,
        /// Write the JSON document here (stdout gets the summary).
        out: Option<PathBuf>,
        /// Write each run's event trace as JSONL (per-system suffix).
        trace_out: Option<PathBuf>,
        /// Comma-separated event classes to keep in the trace.
        trace_filter: Option<String>,
        /// Stream seed.
        seed: u64,
    },
    /// Replay an imported MSR Cambridge trace on both systems.
    Replay {
        /// MSR CSV path.
        msr: PathBuf,
        /// Voltage-adjustment error rate for the IDA system (0.0–1.0).
        error_rate: f64,
        /// Closed-loop queue depth (`None` = open loop, the trace's own
        /// arrival times).
        closed: Option<usize>,
        /// Use the smoke-test scale geometry.
        smoke: bool,
        /// Write each run's event trace as JSONL (per-system suffix).
        trace_out: Option<PathBuf>,
        /// Write each run's metrics report as JSON (per-system suffix).
        metrics_json: Option<PathBuf>,
        /// Report run progress on stderr.
        progress: bool,
    },
    /// Analyze a JSONL event trace (validate, attribute, diff).
    Trace {
        /// Trace file to analyze (absent in `--diff` mode).
        file: Option<PathBuf>,
        /// Only validate (schema, monotonicity, span conservation).
        validate: bool,
        /// How many slowest reads to show with waterfalls.
        top: usize,
        /// Compare two traces phase-by-phase instead.
        diff: Option<(PathBuf, PathBuf)>,
    },
    /// Print usage.
    Help,
}

/// Parse command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands or malformed
/// values.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("describe") => {
            let workload = args
                .get(1)
                .ok_or("describe needs a workload name (try `idasim list`)")?;
            Ok(Command::Describe {
                workload: workload.clone(),
            })
        }
        Some("compare") => {
            let workload = args
                .get(1)
                .ok_or("compare needs a workload name (try `idasim list`)")?
                .clone();
            let mut c = CommonArgs::accepting(&[args::REQUESTS, args::PROGRESS]);
            let mut error_rate = 0.2;
            let mut trace_out = None;
            let mut metrics_json = None;
            let mut trace_filter = None;
            let mut i = 2;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--error-rate" => {
                        error_rate =
                            args::parsed(args, &mut i, "--error-rate", "a value", "error rate")?;
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(args::value(
                            args,
                            &mut i,
                            "--trace-out",
                            "a path",
                        )?));
                    }
                    "--metrics-json" => {
                        metrics_json = Some(PathBuf::from(args::value(
                            args,
                            &mut i,
                            "--metrics-json",
                            "a path",
                        )?));
                    }
                    "--trace-filter" => {
                        let spec = args::value(args, &mut i, "--trace-filter", "a class list")?
                            .to_string();
                        // Validate eagerly so a typo fails before any run.
                        ida_obs::trace::parse_trace_filter(&spec)?;
                        trace_filter = Some(spec);
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("error rate {error_rate} outside [0, 1]"));
            }
            Ok(Command::Compare {
                workload,
                error_rate,
                requests: c.requests.unwrap_or(6_000),
                trace_out,
                metrics_json,
                trace_filter,
                progress: c.progress,
            })
        }
        Some("sweep") => {
            let grid = args
                .get(1)
                .filter(|g| !g.starts_with("--"))
                .ok_or_else(|| {
                    format!(
                        "sweep needs a grid name (one of: {})",
                        BUILTIN_GRIDS.join(", ")
                    )
                })?
                .clone();
            let mut c = CommonArgs::accepting(&[
                args::JOBS,
                args::JOURNAL,
                args::OUT,
                args::SMOKE,
                args::REQUESTS,
                args::PROGRESS,
            ]);
            let mut warm_cache = false;
            let mut i = 2;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--warm-cache" => {
                        warm_cache = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            Ok(Command::Sweep {
                grid,
                jobs: c.jobs,
                journal: c.journal,
                out: c.out,
                smoke: c.smoke,
                requests: c.requests,
                progress: c.progress,
                warm_cache,
            })
        }
        Some("serve") => {
            let grid = args
                .get(1)
                .filter(|g| !g.starts_with("--"))
                .ok_or_else(|| {
                    format!(
                        "serve needs a grid name (one of: {})",
                        BUILTIN_GRIDS.join(", ")
                    )
                })?
                .clone();
            let mut c =
                CommonArgs::accepting(&[args::JOURNAL, args::OUT, args::SMOKE, args::REQUESTS]);
            let mut listen = DEFAULT_FABRIC_ADDR.to_string();
            let mut i = 2;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--listen" => {
                        listen = args::value(args, &mut i, "--listen", "an address")?.to_string();
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            Ok(Command::Serve {
                grid,
                listen,
                journal: c.journal,
                out: c.out,
                smoke: c.smoke,
                requests: c.requests,
            })
        }
        Some("worker") => {
            let mut c = CommonArgs::accepting(&[args::JOBS]);
            let mut connect = DEFAULT_FABRIC_ADDR.to_string();
            let mut i = 1;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--connect" => {
                        connect = args::value(args, &mut i, "--connect", "an address")?.to_string();
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            Ok(Command::Worker {
                connect,
                jobs: c.jobs,
            })
        }
        Some("snapshot") => {
            let action = args
                .get(1)
                .filter(|a| matches!(a.as_str(), "save" | "restore" | "inspect"))
                .ok_or("snapshot needs an action: save, restore, or inspect")?
                .clone();
            let path = PathBuf::from(
                args.get(2)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or("snapshot needs a file path after the action")?,
            );
            let mut c = CommonArgs::accepting(&[args::SMOKE, args::REQUESTS]);
            let mut workload = None;
            let mut system = "Baseline".to_string();
            let mut i = 3;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--workload" => {
                        workload =
                            Some(args::value(args, &mut i, "--workload", "a name")?.to_string());
                    }
                    "--system" => {
                        system = args::value(args, &mut i, "--system", "a name")?.to_string();
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            if action == "save" && workload.is_none() {
                return Err("snapshot save needs --workload (try `idasim list`)".into());
            }
            Ok(Command::Snapshot {
                action,
                path,
                workload,
                system,
                smoke: c.smoke,
                requests: c.requests,
            })
        }
        Some("soak") => {
            let workload = args
                .get(1)
                .filter(|g| !g.starts_with("--"))
                .ok_or("soak needs a workload name (try `idasim list`)")?
                .clone();
            let mut c = CommonArgs::accepting(&[
                args::JOBS,
                args::JOURNAL,
                args::OUT,
                args::SMOKE,
                args::REQUESTS,
                args::PROGRESS,
            ]);
            let mut level = "mid".to_string();
            let mut error_rate = 0.2;
            let mut epochs = ida_bench::soak::SOAK_EPOCHS;
            let mut i = 2;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--level" => {
                        level = args::value(args, &mut i, "--level", "a value")?.to_string();
                    }
                    "--error-rate" => {
                        error_rate =
                            args::parsed(args, &mut i, "--error-rate", "a value", "error rate")?;
                    }
                    "--epochs" => {
                        epochs = args::parsed(args, &mut i, "--epochs", "a value", "epoch count")?;
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            // Validate eagerly so a typo fails before hours of soaking.
            if ida_faults::AgingConfig::preset(&level, 0).is_none() {
                return Err(format!(
                    "unknown aging level {level:?} (one of: {})",
                    ida_faults::AgingConfig::LEVELS.join(", ")
                ));
            }
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("error rate {error_rate} outside [0, 1]"));
            }
            if epochs == 0 {
                return Err("--epochs must be at least 1".into());
            }
            Ok(Command::Soak {
                workload,
                level,
                error_rate,
                epochs,
                jobs: c.jobs,
                journal: c.journal,
                out: c.out,
                smoke: c.smoke,
                requests: c.requests,
                progress: c.progress,
            })
        }
        Some("load") => {
            let workload = args
                .get(1)
                .filter(|g| !g.starts_with("--"))
                .ok_or("load needs a workload name (try `idasim list`)")?
                .clone();
            let mut c =
                CommonArgs::accepting(&[args::OUT, args::SMOKE, args::REQUESTS, args::SEED]);
            let mut error_rate = 0.2;
            let mut iops = None;
            let mut arrival = "poisson".to_string();
            let mut tenants = 1;
            let mut admission = "shed".to_string();
            let mut slo_us = 2_000;
            let mut capacity = false;
            let mut lo = None;
            let mut hi = None;
            let mut trace_out = None;
            let mut trace_filter = None;
            let mut i = 2;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--error-rate" => {
                        error_rate =
                            args::parsed(args, &mut i, "--error-rate", "a value", "error rate")?;
                    }
                    "--iops" => {
                        iops = Some(args::parsed(args, &mut i, "--iops", "a value", "IOPS")?);
                    }
                    "--arrival" => {
                        arrival = args::value(args, &mut i, "--arrival", "a shape")?.to_string();
                    }
                    "--tenants" => {
                        tenants =
                            args::parsed(args, &mut i, "--tenants", "a count", "tenant count")?;
                    }
                    "--admission" => {
                        admission =
                            args::value(args, &mut i, "--admission", "a policy")?.to_string();
                    }
                    "--slo-us" => {
                        slo_us = args::parsed(args, &mut i, "--slo-us", "a value", "SLO")?;
                    }
                    "--capacity" => {
                        capacity = true;
                        i += 1;
                    }
                    "--lo" => {
                        lo = Some(args::parsed(args, &mut i, "--lo", "a value", "--lo IOPS")?);
                    }
                    "--hi" => {
                        hi = Some(args::parsed(args, &mut i, "--hi", "a value", "--hi IOPS")?);
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(args::value(
                            args,
                            &mut i,
                            "--trace-out",
                            "a path",
                        )?));
                    }
                    "--trace-filter" => {
                        let spec = args::value(args, &mut i, "--trace-filter", "a class list")?
                            .to_string();
                        ida_obs::trace::parse_trace_filter(&spec)?;
                        trace_filter = Some(spec);
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("error rate {error_rate} outside [0, 1]"));
            }
            // Validate the label spellings eagerly so typos fail fast.
            ida_host::ArrivalSpec::parse(&arrival)?;
            ida_host::AdmissionPolicy::parse(&admission)?;
            if tenants == 0 {
                return Err("--tenants must be at least 1".to_string());
            }
            if slo_us == 0 {
                return Err("--slo-us must be positive".to_string());
            }
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo == 0 || lo > hi {
                    return Err(format!("bad capacity bracket [{lo}, {hi}]"));
                }
            }
            Ok(Command::Load {
                workload,
                error_rate,
                iops,
                arrival,
                tenants,
                admission,
                slo_us,
                requests: c.requests,
                smoke: c.smoke,
                capacity,
                lo,
                hi,
                out: c.out,
                trace_out,
                trace_filter,
                seed: c.seed,
            })
        }
        Some("replay") => {
            let mut c = CommonArgs::accepting(&[args::SMOKE, args::PROGRESS]);
            let mut msr = None;
            let mut error_rate = 0.2;
            let mut closed = None;
            let mut trace_out = None;
            let mut metrics_json = None;
            let mut i = 1;
            while i < args.len() {
                if c.take(args, &mut i)? {
                    continue;
                }
                match args[i].as_str() {
                    "--msr" => {
                        msr = Some(PathBuf::from(args::value(args, &mut i, "--msr", "a path")?));
                    }
                    "--error-rate" => {
                        error_rate =
                            args::parsed(args, &mut i, "--error-rate", "a value", "error rate")?;
                    }
                    "--closed" => {
                        let depth: usize =
                            args::parsed(args, &mut i, "--closed", "a queue depth", "queue depth")?;
                        if depth == 0 {
                            return Err("--closed queue depth must be positive".to_string());
                        }
                        closed = Some(depth);
                    }
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(args::value(
                            args,
                            &mut i,
                            "--trace-out",
                            "a path",
                        )?));
                    }
                    "--metrics-json" => {
                        metrics_json = Some(PathBuf::from(args::value(
                            args,
                            &mut i,
                            "--metrics-json",
                            "a path",
                        )?));
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            let msr = msr.ok_or("replay needs --msr <trace.csv>")?;
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("error rate {error_rate} outside [0, 1]"));
            }
            Ok(Command::Replay {
                msr,
                error_rate,
                closed,
                smoke: c.smoke,
                trace_out,
                metrics_json,
                progress: c.progress,
            })
        }
        Some("trace") => {
            let mut file = None;
            let mut validate = false;
            let mut top = 5;
            let mut diff = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--validate" => {
                        validate = true;
                        i += 1;
                    }
                    "--top" => {
                        top = args::parsed(args, &mut i, "--top", "a count", "--top count")?;
                    }
                    "--diff" => {
                        let a = args.get(i + 1).ok_or("--diff needs two trace paths")?;
                        let b = args.get(i + 2).ok_or("--diff needs two trace paths")?;
                        diff = Some((PathBuf::from(a), PathBuf::from(b)));
                        i += 3;
                    }
                    other if !other.starts_with("--") && file.is_none() => {
                        file = Some(PathBuf::from(other));
                        i += 1;
                    }
                    other => return Err(format!("unknown option: {other}")),
                }
            }
            match (&file, &diff) {
                (None, None) => {
                    return Err("trace needs a trace file or --diff <a> <b>".to_string())
                }
                (Some(_), Some(_)) => {
                    return Err("trace takes either a trace file or --diff, not both".to_string())
                }
                _ => {}
            }
            Ok(Command::Trace {
                file,
                validate,
                top,
                diff,
            })
        }
        Some(other) => Err(format!("unknown command: {other} (try `idasim help`)")),
    }
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
            out.push_str("available workloads (MSR-Cambridge-like, Table III):\n");
            for p in paper_workloads() {
                let _ = writeln!(
                    out,
                    "  {:8} read ratio {:5.1}%  mean read {:5.1} KB",
                    p.spec.name, p.paper.read_ratio_pct, p.paper.read_kb
                );
            }
        }
        Command::Describe { workload } => {
            let p = paper_workload(&workload).ok_or_else(|| unknown(&workload))?;
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
        Command::Compare {
            workload,
            error_rate,
            requests,
            trace_out,
            metrics_json,
            trace_filter,
            progress,
        } => {
            let p = paper_workload(&workload).ok_or_else(|| unknown(&workload))?;
            let scale = ExperimentScale::default_scale().with_requests(requests);
            let obs = ObsOptions {
                trace_out,
                metrics_json,
                progress,
                gauge_interval_ns: None,
                // The explicit flag wins; IDA_TRACE_FILTER fills in when
                // absent (validated again when the sink is attached).
                trace_filter: trace_filter.or_else(|| std::env::var("IDA_TRACE_FILTER").ok()),
            };
            let mut runs = Vec::new();
            for system in [
                SystemUnderTest::Baseline,
                SystemUnderTest::Ida { error_rate },
            ] {
                let run_obs = obs.suffixed(&system.label());
                runs.push(
                    run_system_obs(&p, system, &scale, &run_obs)
                        .map_err(|e| format!("observability output failed: {e}"))?,
                );
                for (what, path) in [
                    ("trace", &run_obs.trace_out),
                    ("metrics", &run_obs.metrics_json),
                ] {
                    if let Some(path) = path {
                        let _ =
                            writeln!(out, "wrote {} {what} to {}", system.label(), path.display());
                    }
                }
            }
            let ida = runs.pop().expect("two runs");
            let base = runs.pop().expect("two runs");
            let norm = normalized_read_response(&ida.report, &base.report);
            let _ = writeln!(out, "workload {workload}, {} requests:", requests);
            let _ = writeln!(
                out,
                "  baseline  mean read response {:9.1} us  (p99 {:9.1} us)",
                base.report.reads.mean_us(),
                base.report.reads.percentile(99.0) as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "  IDA-E{:<3.0} mean read response {:9.1} us  (p99 {:9.1} us)",
                error_rate * 100.0,
                ida.report.reads.mean_us(),
                ida.report.reads.percentile(99.0) as f64 / 1e3
            );
            let _ = writeln!(
                out,
                "  normalized: {norm:.3}  (read response improved by {:.1}%)",
                (1.0 - norm) * 100.0
            );
        }
        Command::Sweep {
            grid,
            jobs,
            journal,
            out: out_path,
            smoke,
            requests,
            progress,
            warm_cache,
        } => {
            let spec = builtin_grid(&grid).ok_or_else(|| {
                format!(
                    "unknown sweep grid {grid} (one of: {})",
                    BUILTIN_GRIDS.join(", ")
                )
            })?;
            let mut scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
            if let Some(r) = requests {
                scale.requests = r;
            }
            // Environment supplies defaults (IDA_JOBS, IDA_JOURNAL);
            // explicit flags win.
            let mut cfg = SweepConfig::from_env()?;
            if let Some(j) = jobs {
                cfg.jobs = j;
            }
            if journal.is_some() {
                cfg.journal = journal;
            }
            cfg.progress = progress;
            if warm_cache {
                cfg = cfg.with_warm_cache();
            }
            let outcome =
                run_grid(&spec, &scale, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
            if let Some(cache) = cfg.warm_cache() {
                // stderr, like --progress: diagnostics never pollute the
                // machine-readable aggregate on stdout.
                eprintln!("{}", cache.stats_line(outcome.outcomes.len()));
            }
            let json = outcome.aggregate_json();
            match out_path {
                Some(path) => {
                    std::fs::write(&path, json + "\n")
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    out.push_str(&render(&outcome)?);
                    let _ = writeln!(
                        out,
                        "\nsweep {grid} on {} worker(s): {}\nwrote aggregate to {}",
                        cfg.jobs,
                        outcome.summary(),
                        path.display()
                    );
                }
                // No --out: machine-readable aggregate on stdout.
                None => {
                    out.push_str(&json);
                    out.push('\n');
                }
            }
        }
        Command::Serve {
            grid,
            listen,
            journal,
            out: out_path,
            smoke,
            requests,
        } => {
            let spec = builtin_grid(&grid).ok_or_else(|| {
                format!(
                    "unknown sweep grid {grid} (one of: {})",
                    BUILTIN_GRIDS.join(", ")
                )
            })?;
            let mut scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
            if let Some(r) = requests {
                scale.requests = r;
            }
            let mut cfg = SweepConfig::from_env()?;
            if journal.is_some() {
                cfg.journal = journal;
            }
            let listener = std::net::TcpListener::bind(&listen)
                .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
            // stderr, like fabric events: the aggregate owns stdout.
            eprintln!(
                "serving sweep {grid} on {listen}; join with: idasim worker --connect {listen}"
            );
            let outcome = run_grid_on(&spec, &scale, &cfg, Backend::Distributed { listener })
                .map_err(|e| format!("serve failed: {e}"))?;
            let json = outcome.aggregate_json();
            match out_path {
                Some(path) => {
                    std::fs::write(&path, json + "\n")
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    out.push_str(&render(&outcome)?);
                    let _ = writeln!(
                        out,
                        "\nsweep {grid} served on {listen}: {}\nwrote aggregate to {}",
                        outcome.summary(),
                        path.display()
                    );
                }
                None => {
                    out.push_str(&json);
                    out.push('\n');
                }
            }
        }
        Command::Worker { connect, jobs } => {
            let jobs = match jobs {
                Some(j) => j,
                // Same default ladder as local sweeps: IDA_JOBS, else
                // all cores.
                None => SweepConfig::from_env()?.jobs,
            };
            let report = run_grid_worker(&connect, jobs, FABRIC_CONNECT_WAIT)
                .map_err(|e| format!("worker failed: {e}"))?;
            let _ = writeln!(
                out,
                "worker finished sweep {}: {} cell attempt(s) on {jobs} connection(s), {} ok, {} failed",
                report.sweep, report.ran, report.ok, report.failed
            );
        }
        Command::Snapshot {
            action,
            path,
            workload,
            system,
            smoke,
            requests,
        } => {
            let mut scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
            if let Some(r) = requests {
                scale.requests = r;
            }
            let system_spec = parse_system(&system)?;
            match action.as_str() {
                "save" => {
                    let workload = workload.expect("parse_args requires --workload for save");
                    let preset = paper_workload(&workload).ok_or_else(|| unknown(&workload))?;
                    let mut cfg = system_config(
                        system_spec,
                        scale.geometry,
                        FlashTiming::paper_tlc(),
                        RetryConfig::disabled(),
                    );
                    // The same seed the sweep engine would warm this
                    // (workload, system) pair under, so a saved snapshot
                    // is byte-interchangeable with the sweep cache's.
                    cfg.ftl.seed =
                        derive_stream_seed(WARM_SEED_BASE, &format!("{workload}/{system}/r0"));
                    let key = warm_cache_key(&workload, &cfg, &scale);
                    let (sim, _) = warmed_simulator(&preset, cfg, &scale);
                    let mut w = ida_snap::Writer::new();
                    ida_snap::Snap::encode(&workload, &mut w);
                    ida_snap::Snap::encode(&system, &mut w);
                    ida_snap::Snap::encode(&(scale.requests as u64), &mut w);
                    ida_snap::Snap::encode(&sim.snapshot(), &mut w);
                    let framed = ida_snap::frame::seal(&w.into_bytes());
                    let bytes = framed.len();
                    std::fs::write(&path, framed)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
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
                    let mut r = ida_snap::Reader::new(payload);
                    let saved_workload: String = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let saved_system: String = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let saved_requests: u64 = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot header: {e}"))?;
                    let inner: Vec<u8> = ida_snap::Snap::decode(&mut r)
                        .map_err(|e| format!("corrupt snapshot body: {e}"))?;
                    r.finish()
                        .map_err(|e| format!("trailing snapshot bytes: {e}"))?;
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
                        let preset = paper_workload(&saved_workload)
                            .ok_or_else(|| unknown(&saved_workload))?;
                        let requests =
                            requests.unwrap_or(usize::try_from(saved_requests).unwrap_or(0));
                        let footprint = ((sim.config().ftl.exported_pages() as f64
                            * preset.footprint_frac)
                            as u64)
                            .max(1_000);
                        let trace = preset.generate(footprint, requests);
                        sim.set_spans(true);
                        let report = sim.run(to_host_ops(&trace));
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
            }
        }
        Command::Soak {
            workload,
            level,
            error_rate,
            epochs,
            jobs,
            journal,
            out: out_path,
            smoke,
            requests,
            progress,
        } => {
            paper_workload(&workload).ok_or_else(|| unknown(&workload))?;
            let mut scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
            if let Some(r) = requests {
                scale.requests = r;
            }
            let mut cfg = SweepConfig::from_env()?;
            if let Some(j) = jobs {
                cfg.jobs = j;
            }
            if journal.is_some() {
                cfg.journal = journal;
            }
            cfg.progress = progress;
            // Two cells — Baseline and the IDA system — run through the
            // sweep engine, so parallelism, journaling, and byte-identical
            // aggregation come from the same machinery as `sweep`.
            let spec = SweepSpec::new(
                "soak",
                vec![workload.clone()],
                vec![
                    SystemUnderTest::Baseline.label(),
                    SystemUnderTest::Ida { error_rate }.label(),
                ],
            )
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
            let _ = writeln!(
                out,
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
            if let Some(path) = out_path {
                std::fs::write(&path, outcome.aggregate_json() + "\n")
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let _ = writeln!(out, "wrote aggregate to {}", path.display());
            }
        }
        Command::Load {
            workload,
            error_rate,
            iops,
            arrival,
            tenants,
            admission,
            slo_us,
            requests,
            smoke,
            capacity,
            lo,
            hi,
            out: out_path,
            trace_out,
            trace_filter,
            seed,
        } => {
            let p = paper_workload(&workload).ok_or_else(|| unknown(&workload))?;
            let mut scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
            if let Some(r) = requests {
                scale.requests = r;
            }
            let arrival = ArrivalSpec::parse(&arrival)?;
            let admission = AdmissionPolicy::parse(&admission)?;
            let slo_ns = slo_us * 1_000;
            let nominal = nominal_iops(&p.spec);
            let systems = [
                SystemUnderTest::Baseline,
                SystemUnderTest::Ida { error_rate },
            ];
            let obs = ObsOptions {
                trace_out,
                trace_filter: trace_filter.or_else(|| std::env::var("IDA_TRACE_FILTER").ok()),
                ..ObsOptions::default()
            };
            let json = if capacity {
                let lo = lo.unwrap_or((nominal / 4).max(1));
                let hi = hi.unwrap_or(nominal * 4).max(lo);
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
                for system in systems {
                    let r = run_capacity(
                        &p,
                        system,
                        arrival,
                        &scale,
                        slo_ns,
                        lo,
                        hi,
                        CAPACITY_MAX_ITERS,
                        seed,
                    )
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
                let offered = iops.unwrap_or(nominal).max(1);
                let _ = writeln!(
                    out,
                    "workload {workload} at {offered} offered IOPS (nominal {nominal}), \
                     {} arrivals, {tenants} tenant(s), {} admission:",
                    arrival.label(),
                    admission.label()
                );
                let mut doc = JsonObj::new()
                    .str("workload", &workload)
                    .u64("offered_iops", offered)
                    .u64("nominal_iops", nominal);
                for system in systems {
                    let spec = LoadSpec {
                        system,
                        arrival,
                        offered_iops: offered,
                        tenants,
                        admission,
                        slo_p99_ns: slo_ns,
                        seed,
                    };
                    let run_obs = obs.suffixed(&system.label());
                    let run =
                        run_load_obs(&p, &spec, &scale, &run_obs).map_err(|e| e.to_string())?;
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
                    if let Some(path) = &run_obs.trace_out {
                        let _ =
                            writeln!(out, "wrote {} trace to {}", system.label(), path.display());
                    }
                    doc = doc.raw(&system.label(), &load_metrics_json(&run));
                }
                doc.finish()
            };
            if let Some(path) = out_path {
                std::fs::write(&path, json + "\n")
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let _ = writeln!(out, "wrote load JSON to {}", path.display());
            }
        }
        Command::Replay {
            msr,
            error_rate,
            closed,
            smoke,
            trace_out,
            metrics_json,
            progress,
        } => {
            let scale = if smoke {
                ExperimentScale::smoke()
            } else {
                ExperimentScale::from_env()
            };
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
            let mode = match closed {
                None => ReplayMode::OpenLoop,
                Some(depth) => ReplayMode::ClosedLoop(depth),
            };
            let obs = ObsOptions {
                trace_out,
                metrics_json,
                progress,
                ..ObsOptions::default()
            };
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
            for system in [
                SystemUnderTest::Baseline,
                SystemUnderTest::Ida { error_rate },
            ] {
                let run_obs = obs.suffixed(&system.label());
                let report = replay_trace(&trace, system, &scale, mode, &run_obs)
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
        Command::Trace {
            file,
            validate,
            top,
            diff,
        } => {
            let text = match (file, diff) {
                (Some(path), None) => {
                    if validate {
                        ida_bench::analyze::validate(&path)?
                    } else {
                        ida_bench::analyze::report(&path, top)?
                    }
                }
                (None, Some((a, b))) => ida_bench::analyze::diff(&a, &b)?,
                // parse_args guarantees exactly one mode.
                _ => unreachable!("trace mode validated at parse time"),
            };
            out.push_str(&text);
        }
    }
    Ok(out)
}

fn unknown(workload: &str) -> String {
    format!("unknown workload {workload} (try `idasim list`)")
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
               [--warm-cache]
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
                [--smoke] [--trace-out <path.jsonl>]
                [--metrics-json <path.json>] [--progress]
  idasim trace <trace.jsonl> [--validate] [--top K]
  idasim trace --diff <baseline.jsonl> <other.jsonl>

Observability (compare): --trace-out writes the run's event stream as
JSONL and --metrics-json writes the full report (latency histograms,
counters, gauges) as JSON; both get a per-system suffix, e.g.
trace.jsonl -> trace.Baseline.jsonl. --trace-filter keeps only the
listed event classes (host, ftl, gc, refresh, fault, span; also the
IDA_TRACE_FILTER variable). --progress reports on stderr.

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
faults, load, lifetime) on the parallel orchestration engine. --jobs N (or IDA_JOBS)
sets the worker count, default all cores; aggregated output is
byte-identical for any worker count. --journal appends one checkpoint
record per finished cell; re-invoking with the same journal resumes,
re-running only incomplete cells. With --out the aggregate JSON goes
to the file and the figure table to stdout; without it the JSON goes
to stdout. The faults grid injects program/erase failures, transient
read faults and power losses (levels off/low/mid/high) and reports
IDA's read benefit alongside the recovery counters; fig11 compares
the early and late (retry-heavy) lifetime phases. --warm-cache runs
each unique warm-up once and forks every sibling cell from its
snapshot (single-flight across workers, spilled next to --journal for
resume); it is output-invisible — the aggregate stays byte-identical
to a cache-off run — and prints a hit/miss line on stderr.

Serve/worker: the distributed sweep fabric. `serve` coordinates a grid
without executing any cell itself: it owns the queue, the --journal,
and the aggregation, and hands cells to `idasim worker` processes over
TCP (frame-sealed messages, protocol-version handshake). Workers claim
cells one at a time; a worker killed mid-cell has its cell requeued
(bounded by the same retry budget local sweeps use), and workers may
join or leave at any point. The aggregate is byte-identical to
`idasim sweep <grid> --jobs 1` on the same scale, whatever the worker
population did. Warm-up snapshots rendezvous through the coordinator,
so each unique warm-up runs once per fabric, not once per worker.
Resuming a journaled serve re-runs only incomplete cells — a fully
journaled grid returns without waiting for any worker. Two-worker
loopback example:
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

Figures 8-11 are the fig8..fig11 sweep grids above, e.g.:
  idasim sweep fig11 --smoke --out fig11.json
The single-config paper tables and figures are binaries in the
ida-bench crate, e.g.:
  cargo run --release -p ida-bench --bin table4_refresh_overhead
";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
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
                error_rate: 0.5,
                requests: 1000,
                trace_out: None,
                metrics_json: None,
                trace_filter: None,
                progress: false,
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
            Command::Compare {
                trace_out,
                metrics_json,
                progress,
                ..
            } => {
                assert_eq!(trace_out, Some(PathBuf::from("out/trace.jsonl")));
                assert_eq!(metrics_json, Some(PathBuf::from("out/metrics.json")));
                assert!(progress);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&s(&["compare", "hm_1", "--trace-out"])).is_err());
    }

    #[test]
    fn parses_trace_filter_and_rejects_unknown_classes() {
        let cmd = parse_args(&s(&["compare", "hm_1", "--trace-filter", "host,span"])).unwrap();
        match cmd {
            Command::Compare { trace_filter, .. } => {
                assert_eq!(trace_filter.as_deref(), Some("host,span"));
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
                validate: true,
                top: 3,
                diff: None,
            }
        );
        assert_eq!(
            parse_args(&s(&["trace", "--diff", "a.jsonl", "b.jsonl"])).unwrap(),
            Command::Trace {
                file: None,
                validate: false,
                top: 5,
                diff: Some((PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl"))),
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
            "--warm-cache",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                grid: "fig8".into(),
                jobs: Some(4),
                journal: Some(PathBuf::from("results/fig8.journal.jsonl")),
                out: Some(PathBuf::from("results/fig8.json")),
                smoke: true,
                requests: None,
                progress: true,
                warm_cache: true,
            }
        );
        let defaults = parse_args(&s(&["sweep", "fig9"])).unwrap();
        assert_eq!(
            defaults,
            Command::Sweep {
                grid: "fig9".into(),
                jobs: None,
                journal: None,
                out: None,
                smoke: false,
                requests: None,
                progress: false,
                warm_cache: false,
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
                workload: Some("proj_3".into()),
                system: "IDA-E20".into(),
                smoke: true,
                requests: Some(500),
            }
        );
        let inspect = parse_args(&s(&["snapshot", "inspect", "warm.snap"])).unwrap();
        assert_eq!(
            inspect,
            Command::Snapshot {
                action: "inspect".into(),
                path: PathBuf::from("warm.snap"),
                workload: None,
                system: "Baseline".into(),
                smoke: false,
                requests: None,
            }
        );
        // save without a workload, a bogus action, and a missing path all
        // fail at parse time.
        assert!(parse_args(&s(&["snapshot", "save", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "diff", "warm.snap"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect"])).is_err());
        assert!(parse_args(&s(&["snapshot", "inspect", "--smoke"])).is_err());
    }

    #[test]
    fn snapshot_save_restore_inspect_round_trip() {
        let dir = std::env::temp_dir().join(format!("ida-cli-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.snap");

        let saved = run(Command::Snapshot {
            action: "save".into(),
            path: path.clone(),
            workload: Some("proj_3".into()),
            system: "Baseline".into(),
            smoke: true,
            requests: Some(300),
        })
        .unwrap();
        assert!(saved.contains("cache key"), "no cache key in: {saved}");
        assert!(path.exists());

        let inspected = run(Command::Snapshot {
            action: "inspect".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        assert!(inspected.contains("proj_3/Baseline"), "{inspected}");
        assert!(inspected.contains("300 measured requests"), "{inspected}");

        // Restoring runs the measured trace; twice gives identical output
        // (the file is read-only state, so each restore forks fresh).
        let r1 = run(Command::Snapshot {
            action: "restore".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        let r2 = run(Command::Snapshot {
            action: "restore".into(),
            path: path.clone(),
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap();
        assert_eq!(r1, r2);
        assert!(r1.contains("replayed 300 requests"), "{r1}");

        // A truncated file is rejected with a real error, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(Command::Snapshot {
            action: "inspect".into(),
            path,
            workload: None,
            system: "Baseline".into(),
            smoke: true,
            requests: None,
        })
        .unwrap_err();
        assert!(
            err.contains("not a valid snapshot"),
            "unhelpful error: {err}"
        );
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
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: None,
            progress: false,
            warm_cache: false,
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
            Command::Load {
                workload,
                error_rate,
                iops,
                arrival,
                tenants,
                admission,
                slo_us,
                capacity,
                seed,
                ..
            } => {
                assert_eq!(workload, "proj_3");
                assert!((error_rate - 0.2).abs() < 1e-9);
                assert_eq!(iops, None);
                assert_eq!(arrival, "poisson");
                assert_eq!(tenants, 1);
                assert_eq!(admission, "shed");
                assert_eq!(slo_us, 2_000);
                assert!(!capacity);
                assert_eq!(seed, 0);
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
            Command::Load {
                iops,
                arrival,
                tenants,
                admission,
                slo_us,
                capacity,
                lo,
                hi,
                smoke,
                seed,
                out,
                ..
            } => {
                assert_eq!(iops, Some(5_000));
                assert_eq!(arrival, "onoff");
                assert_eq!(tenants, 3);
                assert_eq!(admission, "delay");
                assert_eq!(slo_us, 1_500);
                assert!(capacity && smoke);
                assert_eq!((lo, hi), (Some(100), Some(9_000)));
                assert_eq!(seed, 7);
                assert_eq!(out, Some(PathBuf::from("load.json")));
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
    }

    #[test]
    fn replay_parses_and_requires_the_msr_path() {
        let cmd = parse_args(&s(&["replay", "--msr", "hm_0.csv", "--closed", "32"])).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                msr: PathBuf::from("hm_0.csv"),
                error_rate: 0.2,
                closed: Some(32),
                smoke: false,
                trace_out: None,
                metrics_json: None,
                progress: false,
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
            error_rate: 0.2,
            closed: None,
            smoke: true,
            trace_out: None,
            metrics_json: None,
            progress: false,
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "unhelpful: {err}");
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
    fn serve_and_worker_parse_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&s(&["serve", "faults", "--smoke"])).unwrap(),
            Command::Serve {
                grid: "faults".into(),
                listen: DEFAULT_FABRIC_ADDR.into(),
                journal: None,
                out: None,
                smoke: true,
                requests: None,
            }
        );
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
                listen: "0.0.0.0:9000".into(),
                journal: Some(PathBuf::from("j.jsonl")),
                out: Some(PathBuf::from("agg.json")),
                smoke: false,
                requests: Some(800),
            }
        );
        assert_eq!(
            parse_args(&s(&["worker"])).unwrap(),
            Command::Worker {
                connect: DEFAULT_FABRIC_ADDR.into(),
                jobs: None,
            }
        );
        assert_eq!(
            parse_args(&s(&["worker", "--connect", "10.0.0.2:7141", "--jobs", "2"])).unwrap(),
            Command::Worker {
                connect: "10.0.0.2:7141".into(),
                jobs: Some(2),
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
                level: "mid".into(),
                error_rate: 0.2,
                epochs: ida_bench::soak::SOAK_EPOCHS,
                jobs: None,
                journal: None,
                out: None,
                smoke: false,
                requests: None,
                progress: false,
            }
        );
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
                level: "high".into(),
                error_rate: 0.3,
                epochs: 4,
                jobs: Some(2),
                journal: Some(PathBuf::from("soak.journal.jsonl")),
                out: Some(PathBuf::from("soak.json")),
                smoke: true,
                requests: Some(800),
                progress: true,
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
        let out = run(Command::Soak {
            workload: "hm_1".into(),
            level: "high".into(),
            error_rate: 0.2,
            epochs: 2,
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: Some(600),
            progress: false,
        })
        .unwrap();
        assert!(out.contains("Baseline"), "missing Baseline table: {out}");
        assert!(out.contains("IDA-E20"), "missing IDA table: {out}");
        assert!(
            out.contains("invariants: all epochs clean"),
            "invariants not clean: {out}"
        );
        assert!(!out.contains("SOAK UNHEALTHY"), "unhealthy soak: {out}");
        // Unknown workloads fail before any soaking.
        assert!(run(Command::Soak {
            workload: "nope".into(),
            level: "mid".into(),
            error_rate: 0.2,
            epochs: 2,
            jobs: Some(1),
            journal: None,
            out: None,
            smoke: true,
            requests: Some(100),
            progress: false,
        })
        .is_err());
    }
}
