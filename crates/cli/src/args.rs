//! The one table of every flag `idasim` accepts, and the one scan over it.
//!
//! [`FLAGS`] holds each flag once: its name, its value [`Shape`] (with
//! the `"{flag} needs {what}"` wording), and the parser that validates
//! the value into [`Opts`] (with the `"bad {label}: {e}"` wording).
//! [`SUBCOMMANDS`] holds one [`Row`] per subcommand: its positional
//! arguments and the flags it accepts. [`scan`] walks a command line
//! against one row, so a flag outside the row is an `unknown option`
//! there, whichever other subcommand accepts it.

use crate::DEFAULT_FABRIC_ADDR;
use ida_bench::soak::SOAK_EPOCHS;
use ida_faults::AgingConfig;
use ida_host::{AdmissionPolicy, ArrivalSpec};
use ida_sweep::pool::parse_jobs;
use std::path::PathBuf;
use std::str::FromStr;
use Shape::{One, Switch, Two};

/// Every flag's value after a [`scan`]. A flag outside the scanned row
/// keeps its default here.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// `--jobs`: worker threads (`None` = `IDA_JOBS` or all cores).
    pub jobs: Option<usize>,
    /// `--journal`: checkpoint journal (resume skips journaled cells).
    pub journal: Option<PathBuf>,
    /// `--out`: machine-readable output file.
    pub out: Option<PathBuf>,
    /// `--smoke`: the smoke-test scale.
    pub smoke: bool,
    /// `--requests`: measured request count override.
    pub requests: Option<usize>,
    /// `--progress`: progress heartbeat on stderr.
    pub progress: bool,
    /// `--seed`: stream seed.
    pub seed: u64,
    /// `--error-rate`: the IDA system's voltage-adjustment error rate.
    pub error_rate: f64,
    /// `--trace-out`: event trace JSONL (per-system suffix added).
    pub trace_out: Option<PathBuf>,
    /// `--metrics-json`: metrics report JSON (per-system suffix added).
    pub metrics_json: Option<PathBuf>,
    /// `--trace-filter`: comma-separated event classes to keep.
    pub trace_filter: Option<String>,
    /// `--warm-cache`: run each unique warm-up once and fork the rest.
    pub warm_cache: bool,
    /// `--listen`: the coordinator's listen address.
    pub listen: String,
    /// `--connect`: the coordinator a worker joins.
    pub connect: String,
    /// `--workload`: the workload a snapshot warms.
    pub workload: Option<String>,
    /// `--system`: the system a snapshot warms.
    pub system: String,
    /// `--level`: aging level (`off`, `low`, `mid`, `high`).
    pub level: String,
    /// `--epochs`: accelerated-lifetime epochs (epoch 0 is fresh).
    pub epochs: usize,
    /// `--iops`: offered rate (`None` = the workload's nominal rate).
    pub iops: Option<u64>,
    /// `--arrival`: arrival process.
    pub arrival: ArrivalSpec,
    /// `--tenants`: tenant streams the trace is dealt across.
    pub tenants: u32,
    /// `--admission`: what a full host queue does.
    pub admission: AdmissionPolicy,
    /// `--slo-us`: read p99 SLO target, µs.
    pub slo_us: u64,
    /// `--capacity`: bisect for the max sustainable rate instead.
    pub capacity: bool,
    /// `--lo`: capacity bracket floor, IOPS (`None` = nominal / 4).
    pub lo: Option<u64>,
    /// `--hi`: capacity bracket ceiling, IOPS (`None` = nominal × 4).
    pub hi: Option<u64>,
    /// `--msr`: the MSR Cambridge CSV to replay.
    pub msr: Option<PathBuf>,
    /// `--closed`: closed-loop queue depth (`None` = open loop).
    pub closed: Option<usize>,
    /// `--validate`: only validate the trace.
    pub validate: bool,
    /// `--top`: how many slowest reads to show with waterfalls.
    pub top: usize,
    /// `--diff`: compare two traces phase by phase.
    pub diff: Option<(PathBuf, PathBuf)>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            jobs: None,
            journal: None,
            out: None,
            smoke: false,
            requests: None,
            progress: false,
            seed: 0,
            error_rate: 0.2,
            trace_out: None,
            metrics_json: None,
            trace_filter: None,
            warm_cache: false,
            listen: DEFAULT_FABRIC_ADDR.into(),
            connect: DEFAULT_FABRIC_ADDR.into(),
            workload: None,
            system: "Baseline".into(),
            level: "mid".into(),
            epochs: SOAK_EPOCHS,
            iops: None,
            arrival: ArrivalSpec::Poisson,
            tenants: 1,
            admission: AdmissionPolicy::Shed,
            slo_us: 2_000,
            capacity: false,
            lo: None,
            hi: None,
            msr: None,
            closed: None,
            validate: false,
            top: 5,
            diff: None,
        }
    }
}

/// How a flag takes its value, with the parser that stores it.
pub enum Shape {
    /// A switch: no value.
    Switch(fn(&mut Opts)),
    /// One value; a missing one fails with `"{flag} needs {what}"`.
    One(&'static str, fn(&mut Opts, &str) -> Result<(), String>),
    /// Two values, with the same missing-value wording.
    Two(&'static str, fn(&mut Opts, &str, &str)),
}

/// Every flag `idasim` accepts, once.
pub const FLAGS: &[(&str, Shape)] = &[
    (
        "--jobs",
        One("a value", |o, v| put(&mut o.jobs, parse_jobs(v).map(Some))),
    ),
    (
        "--journal",
        One("a path", |o, v| put(&mut o.journal, path(v))),
    ),
    ("--out", One("a path", |o, v| put(&mut o.out, path(v)))),
    ("--smoke", Switch(|o| o.smoke = true)),
    (
        "--requests",
        One("a value", |o, v| {
            put(&mut o.requests, some(v, "request count"))
        }),
    ),
    ("--progress", Switch(|o| o.progress = true)),
    (
        "--seed",
        One("a value", |o, v| put(&mut o.seed, parsed(v, "seed"))),
    ),
    (
        "--error-rate",
        One("a value", |o, v| put(&mut o.error_rate, error_rate(v))),
    ),
    (
        "--trace-out",
        One("a path", |o, v| put(&mut o.trace_out, path(v))),
    ),
    (
        "--metrics-json",
        One("a path", |o, v| put(&mut o.metrics_json, path(v))),
    ),
    (
        "--trace-filter",
        One("a class list", |o, v| {
            put(&mut o.trace_filter, trace_filter(v))
        }),
    ),
    ("--warm-cache", Switch(|o| o.warm_cache = true)),
    (
        "--listen",
        One("an address", |o, v| put(&mut o.listen, Ok(v.into()))),
    ),
    (
        "--connect",
        One("an address", |o, v| put(&mut o.connect, Ok(v.into()))),
    ),
    (
        "--workload",
        One("a name", |o, v| put(&mut o.workload, Ok(Some(v.into())))),
    ),
    (
        "--system",
        One("a name", |o, v| put(&mut o.system, Ok(v.into()))),
    ),
    (
        "--level",
        One("a value", |o, v| put(&mut o.level, aging_level(v))),
    ),
    (
        "--epochs",
        One("a value", |o, v| put(&mut o.epochs, epochs(v))),
    ),
    (
        "--iops",
        One("a value", |o, v| put(&mut o.iops, some(v, "IOPS"))),
    ),
    (
        "--arrival",
        One("a shape", |o, v| put(&mut o.arrival, ArrivalSpec::parse(v))),
    ),
    (
        "--tenants",
        One("a count", |o, v| put(&mut o.tenants, tenants(v))),
    ),
    (
        "--admission",
        One("a policy", |o, v| {
            put(&mut o.admission, AdmissionPolicy::parse(v))
        }),
    ),
    (
        "--slo-us",
        One("a value", |o, v| put(&mut o.slo_us, slo_us(v))),
    ),
    ("--capacity", Switch(|o| o.capacity = true)),
    (
        "--lo",
        One("a value", |o, v| put(&mut o.lo, some(v, "--lo IOPS"))),
    ),
    (
        "--hi",
        One("a value", |o, v| put(&mut o.hi, some(v, "--hi IOPS"))),
    ),
    ("--msr", One("a path", |o, v| put(&mut o.msr, path(v)))),
    (
        "--closed",
        One("a queue depth", |o, v| put(&mut o.closed, closed(v))),
    ),
    ("--validate", Switch(|o| o.validate = true)),
    (
        "--top",
        One("a count", |o, v| put(&mut o.top, parsed(v, "--top count"))),
    ),
    (
        "--diff",
        Two("two trace paths", |o, a, b| {
            o.diff = Some((a.into(), b.into()))
        }),
    ),
];

/// Store a parsed value, or pass its error on.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// Parse `v`, failing with `"bad {label}: {e}"`.
fn parsed<T: FromStr>(v: &str, label: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {label}: {e}"))
}

fn some<T: FromStr>(v: &str, label: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    parsed(v, label).map(Some)
}

fn path(v: &str) -> Result<Option<PathBuf>, String> {
    Ok(Some(v.into()))
}

/// A count that must not be zero.
fn nonzero<T: FromStr + PartialEq + Default>(v: &str, label: &str, zero: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n = parsed(v, label)?;
    if n == T::default() {
        return Err(zero.to_string());
    }
    Ok(n)
}

fn error_rate(v: &str) -> Result<f64, String> {
    let rate: f64 = parsed(v, "error rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("error rate {rate} outside [0, 1]"));
    }
    Ok(rate)
}

fn trace_filter(v: &str) -> Result<Option<String>, String> {
    // Validate eagerly so a typo fails before any run.
    ida_obs::trace::parse_trace_filter(v)?;
    Ok(Some(v.to_string()))
}

fn aging_level(v: &str) -> Result<String, String> {
    // Validate eagerly so a typo fails before hours of soaking.
    match AgingConfig::preset(v, 0) {
        Some(_) => Ok(v.to_string()),
        None => Err(format!(
            "unknown aging level {v:?} (one of: {})",
            AgingConfig::LEVELS.join(", ")
        )),
    }
}

fn epochs(v: &str) -> Result<usize, String> {
    nonzero(v, "epoch count", "--epochs must be at least 1")
}

fn tenants(v: &str) -> Result<u32, String> {
    nonzero(v, "tenant count", "--tenants must be at least 1")
}

fn slo_us(v: &str) -> Result<u64, String> {
    nonzero(v, "SLO", "--slo-us must be positive")
}

fn closed(v: &str) -> Result<Option<usize>, String> {
    nonzero(v, "queue depth", "--closed queue depth must be positive").map(Some)
}

/// One subcommand: its positional arguments and the flags it accepts,
/// each a space-separated list in `USAGE` order.
pub struct Row {
    /// The subcommand word.
    pub name: &'static str,
    /// Positional argument names, in order.
    pub positionals: &'static str,
    /// Accepted flags.
    pub flags: &'static str,
}

impl Row {
    /// Whether this subcommand accepts `flag`.
    pub fn accepts(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// Every subcommand `idasim` runs (`help` aside, which takes nothing).
pub const SUBCOMMANDS: &[Row] = &[
    Row {
        name: "list",
        positionals: "",
        flags: "",
    },
    Row {
        name: "describe",
        positionals: "workload",
        flags: "",
    },
    Row {
        name: "compare",
        positionals: "workload",
        flags: "--error-rate --requests --trace-out --metrics-json --trace-filter --progress",
    },
    Row {
        name: "sweep",
        positionals: "grid",
        flags: "--jobs --journal --out --smoke --requests --progress --warm-cache",
    },
    Row {
        name: "serve",
        positionals: "grid",
        flags: "--listen --journal --out --smoke --requests",
    },
    Row {
        name: "worker",
        positionals: "",
        flags: "--connect --jobs",
    },
    Row {
        name: "snapshot",
        positionals: "action file",
        flags: "--workload --system --smoke --requests",
    },
    Row {
        name: "soak",
        positionals: "workload",
        flags: "--level --epochs --error-rate --jobs --journal --out --smoke --requests --progress",
    },
    Row {
        name: "load",
        positionals: "workload",
        flags: "--iops --arrival --tenants --admission --slo-us --capacity --lo --hi \
                --error-rate --requests --smoke --seed --out --trace-out --trace-filter",
    },
    Row {
        name: "replay",
        positionals: "",
        flags: "--msr --closed --error-rate --smoke --trace-out --metrics-json --progress",
    },
    Row {
        name: "trace",
        positionals: "file",
        flags: "--validate --top --diff",
    },
];

/// Scan the words after a subcommand against its `row`. A word that is
/// not a `--flag` fills the next positional slot; a flag the row lists
/// is parsed through [`FLAGS`]; anything else is an unknown option.
/// Returns the positionals in order (possibly fewer than the row names)
/// and every flag's value.
///
/// # Errors
///
/// An unknown option, or a missing or invalid flag value.
pub fn scan(row: &Row, args: &[String]) -> Result<(Vec<String>, Opts), String> {
    let slots = row.positionals.split_whitespace().count();
    let mut positionals = Vec::new();
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let word = args[i].as_str();
        i += 1;
        let flag = FLAGS.iter().find(|(name, _)| *name == word);
        let Some((_, shape)) = flag.filter(|_| row.accepts(word)) else {
            if word.starts_with("--") || positionals.len() == slots {
                return Err(format!("unknown option: {word}"));
            }
            positionals.push(word.to_string());
            continue;
        };
        match *shape {
            Switch(set) => set(&mut opts),
            One(what, set) => {
                let v = args.get(i).ok_or_else(|| format!("{word} needs {what}"))?;
                set(&mut opts, v)?;
                i += 1;
            }
            Two(what, set) => {
                let v = args
                    .get(i..i + 2)
                    .ok_or_else(|| format!("{word} needs {what}"))?;
                set(&mut opts, &v[0], &v[1]);
                i += 2;
            }
        }
    }
    Ok((positionals, opts))
}

/// The row of subcommand `name`.
pub fn row(name: &str) -> Option<&'static Row> {
    SUBCOMMANDS.iter().find(|row| row.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn scan_as(name: &str, args: &[&str]) -> Result<(Vec<String>, Opts), String> {
        scan(row(name).expect("known subcommand"), &s(args))
    }

    #[test]
    fn take_consumes_only_accepted_flags() {
        // worker accepts --jobs but not --seed: the table knows --seed,
        // the row does not.
        let (pos, opts) = scan_as("worker", &["--jobs", "4", "--connect", "h:1"]).unwrap();
        assert!(pos.is_empty());
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.connect, "h:1");
        assert_eq!(opts.seed, 0);
        let err = scan_as("worker", &["--jobs", "4", "--seed", "7"]).unwrap_err();
        assert_eq!(err, "unknown option: --seed");
        // Words that are not flags fill the row's positional slots, in
        // order, wherever they sit; one too many is an unknown option.
        let (pos, opts) = scan_as("snapshot", &["save", "--smoke", "w.snap"]).unwrap();
        assert_eq!(pos, ["save", "w.snap"]);
        assert!(opts.smoke);
        let err = scan_as("snapshot", &["save", "w.snap", "extra"]).unwrap_err();
        assert_eq!(err, "unknown option: extra");
    }

    #[test]
    fn missing_values_use_the_uniform_phrasing() {
        for (name, flag, msg) in [
            ("sweep", "--jobs", "--jobs needs a value"),
            ("sweep", "--journal", "--journal needs a path"),
            ("sweep", "--out", "--out needs a path"),
            ("sweep", "--requests", "--requests needs a value"),
            ("load", "--seed", "--seed needs a value"),
            ("worker", "--connect", "--connect needs an address"),
            ("trace", "--diff", "--diff needs two trace paths"),
        ] {
            assert_eq!(scan_as(name, &[flag]).unwrap_err(), msg);
        }
        let err = scan_as("trace", &["--diff", "a.jsonl"]).unwrap_err();
        assert_eq!(err, "--diff needs two trace paths");
    }

    #[test]
    fn malformed_values_keep_their_pinned_messages() {
        let zero = scan_as("sweep", &["--jobs", "0"]).unwrap_err();
        assert!(zero.contains("at least 1"), "unhelpful: {zero}");
        let word = scan_as("sweep", &["--jobs", "four"]).unwrap_err();
        assert!(word.contains("positive integer"), "unhelpful: {word}");
        let req = scan_as("sweep", &["--requests", "many"]).unwrap_err();
        assert!(req.contains("bad request count"), "unhelpful: {req}");
        let seed = scan_as("load", &["--seed", "x"]).unwrap_err();
        assert!(seed.contains("bad seed"), "unhelpful: {seed}");
        for (name, flag, value, msg) in [
            (
                "compare",
                "--error-rate",
                "1.5",
                "error rate 1.5 outside [0, 1]",
            ),
            ("load", "--tenants", "0", "--tenants must be at least 1"),
            ("load", "--slo-us", "0", "--slo-us must be positive"),
            ("soak", "--epochs", "0", "--epochs must be at least 1"),
            (
                "replay",
                "--closed",
                "0",
                "--closed queue depth must be positive",
            ),
        ] {
            assert_eq!(scan_as(name, &[flag, value]).unwrap_err(), msg);
        }
    }

    #[test]
    fn parsed_helper_reports_both_failure_shapes() {
        assert_eq!(
            scan_as("soak", &["--epochs"]).unwrap_err(),
            "--epochs needs a value"
        );
        let err = scan_as("soak", &["--epochs", "soon"]).unwrap_err();
        assert!(err.starts_with("bad epoch count:"), "unhelpful: {err}");
        let err = parsed::<u64>("soon", "epoch count").unwrap_err();
        assert!(err.starts_with("bad epoch count:"), "unhelpful: {err}");
    }

    #[test]
    fn rows_only_name_flags_the_table_defines_once() {
        for (i, (name, _)) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[..i].iter().all(|(other, _)| other != name),
                "{name} defined twice"
            );
            assert!(
                SUBCOMMANDS.iter().any(|row| row.accepts(name)),
                "{name} accepted by no subcommand"
            );
        }
        for row in SUBCOMMANDS {
            for flag in row.flags.split_whitespace() {
                assert!(
                    FLAGS.iter().any(|(name, _)| *name == flag),
                    "{}: {flag} is not in the flag table",
                    row.name
                );
            }
        }
    }
}
