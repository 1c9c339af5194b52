//! The `idabench` commands.
//!
//! `run`, `trace` and `drive` execute every pass in a child process (the
//! hidden `child` command) so that each pass's peak RSS is its own and no
//! pass inherits another's heap. A [`Runner`] abstracts that, so the
//! commands can also run passes in-process at small sizes.

use crate::metrics::{
    def, Check, MetricDef, PassResult, Workload, END_TO_END, GATED_END_TO_END, PER_LAYER,
    WORKLOAD_SPECIFIC,
};
use crate::stats;
use crate::suite::{run_pass, Sizes};
use ida_obs::json::{array, JsonObj};
use ida_sweep::jsonv;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Usage text.
const USAGE: &str = "\
idabench — end-to-end and per-layer benchmark of the IDA coding simulator

usage:
  idabench run     [--seed S] [--workload W] [--repeat N] [--out FILE|-]
  idabench trace   [--seed S] [--workload W] [--trace-out spans.jsonl]
  idabench compare --parent BIN --change BIN [--pairs N] [--seed S] [--workload W]
  idabench drive   --workload W --seed S --seconds T --trace 0|1

workloads: fig8_grid, faults_grid, replay_read, load_write (default: all)
default seed 1 (held-out seed: 2); every pass runs in its own child process";

/// `writeln!` into command output, with a failure as an error message.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(|e| format!("cannot write output: {e}"))
    };
}

/// `--flag value` pairs and bare `--switch`es.
#[derive(Debug, Default)]
struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parse `args`, accepting only the listed flags (`valued` take a
    /// value, `switches` do not).
    ///
    /// # Errors
    ///
    /// Unknown flags, a missing value, or a stray positional argument.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if switches.contains(&name) {
                values.insert(name.to_string(), String::new());
            } else if valued.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                values.insert(name.to_string(), v.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Flags { values })
    }

    /// A flag's value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// A numeric flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A value that is not a non-negative integer.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} needs a non-negative integer, got {v:?}"))
        })
    }

    /// A numeric flag that must be given.
    ///
    /// # Errors
    ///
    /// A missing or non-numeric value.
    pub fn u64_required(&self, name: &str) -> Result<u64, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        self.u64_or(name, 0)
    }

    /// The `--workload` selection: that workload, or all of them.
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            Some(name) => Ok(vec![Workload::parse(name)?]),
            None => Ok(Workload::ALL.to_vec()),
        }
    }
}

/// Runs one pass of (workload, seed, traced).
pub type Runner<'a> = dyn FnMut(Workload, u64, bool) -> Result<PassResult, String> + 'a;

/// Run each pass as `exe child ...` and wait for it; traced passes append
/// their spans to `spans` when given.
fn child_runner(
    exe: PathBuf,
    spans: Option<PathBuf>,
) -> impl FnMut(Workload, u64, bool) -> Result<PassResult, String> {
    move |workload, seed, traced| {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "child",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ]);
        if traced {
            cmd.arg("--traced");
            if let Some(path) = &spans {
                cmd.arg("--spans").arg(path);
            }
        }
        let output = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !output.status.success() {
            return Err(format!(
                "{} pass failed: {}",
                workload.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        PassResult::from_json(line).map_err(|e| format!("{} pass: {e}", workload.name()))
    }
}

/// This process's peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `child`: run one pass in this process at full size and print its
/// result as the last line of stdout.
fn cmd_child(flags: &Flags, out: &mut dyn Write) -> Result<i32, String> {
    let workload = Workload::parse(flags.get("workload").ok_or("--workload is required")?)?;
    let seed = flags.u64_required("seed")?;
    let (mut res, spans) = run_pass(workload, seed, &Sizes::full(), flags.has("traced"));
    if let Some(mib) = peak_rss_mib() {
        res.set("peak_rss_mib", mib);
    }
    if let Some(path) = flags.get("spans") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        let mut text = String::new();
        for s in &spans {
            text.push_str(&s.to_json());
            text.push('\n');
        }
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    say!(out, "{}", res.to_json())?;
    Ok(0)
}

/// A value as printed: counts whole, others to four decimals (one above
/// 100).
fn fmt(v: f64, unit: &str) -> String {
    if matches!(unit, "count" | "bytes") {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Print `workload metric value unit` for each registered metric the
/// passes measured; the median with quartiles when there are several.
fn print_metrics(
    workload: Workload,
    defs: &[MetricDef],
    passes: &[PassResult],
    out: &mut dyn Write,
) -> Result<(), String> {
    for d in defs {
        let xs: Vec<f64> = passes.iter().filter_map(|p| p.get(d.name)).collect();
        if xs.is_empty() {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&xs);
        let (w, name, unit) = (workload.name(), d.name, d.unit);
        let line = if xs.len() == 1 {
            format!("{w} {name} {} {unit}", fmt(q2, unit))
        } else {
            format!(
                "{w} {name} {} {unit} (median; q1 {}, q3 {}, n={})",
                fmt(q2, unit),
                fmt(q1, unit),
                fmt(q3, unit),
                xs.len()
            )
        };
        say!(out, "{}", line)?;
    }
    Ok(())
}

/// Every check across `passes`, one verdict per name (the first failure
/// wins), plus whether all passes produced the same digest. Traced and
/// plain passes of one seed must agree too: a traced pass re-composes
/// the plain calls, so a different digest means that re-composition has
/// gone stale.
fn merged_checks(passes: &[PassResult]) -> Vec<Check> {
    let mut merged: Vec<Check> = Vec::new();
    for c in passes.iter().flat_map(|p| &p.checks) {
        match merged.iter_mut().find(|m| m.name == c.name) {
            Some(m) if m.ok && !c.ok => *m = c.clone(),
            Some(_) => {}
            None => merged.push(c.clone()),
        }
    }
    let digests: Vec<String> = passes.iter().map(PassResult::digest_hex).collect();
    let stable = digests.windows(2).all(|w| w[0] == w[1]);
    let mixed = passes.iter().any(|p| p.traced) && passes.iter().any(|p| !p.traced);
    let stale = if !stable && mixed {
        "decomposition stale: "
    } else {
        ""
    };
    merged.push(Check::new(
        "digest_stable",
        stable,
        format!("{stale}sim_digest per pass: {}", digests.join(", ")),
    ));
    merged
}

/// Print checks as `check <workload> <name> ok|FAIL <detail>`; returns
/// how many failed.
fn print_checks(
    workload: Workload,
    checks: &[Check],
    out: &mut dyn Write,
) -> Result<usize, String> {
    let mut failed = 0;
    for c in checks {
        let verdict = if c.ok { "ok" } else { "FAIL" };
        failed += usize::from(!c.ok);
        say!(
            out,
            "check {} {} {verdict} ({})",
            workload.name(),
            c.name,
            c.detail
        )?;
    }
    Ok(failed)
}

fn verdict(failed: usize) -> String {
    if failed == 0 {
        "all checks passed".to_string()
    } else {
        format!("{failed} check(s) FAILED")
    }
}

fn passes_json(workload: Workload, passes: &[PassResult]) -> String {
    JsonObj::new()
        .str("workload", workload.name())
        .raw("passes", &array(passes.iter().map(PassResult::to_json)))
        .finish()
}

/// `run`: `repeat` plain passes of each workload; prints every
/// end-to-end metric and runs the checks. Returns the exit code (1 if a
/// check failed) and the JSON document of all passes.
///
/// # Errors
///
/// A pass that could not run, or unwritable output.
pub fn cmd_run(
    workloads: &[Workload],
    seed: u64,
    repeat: usize,
    runner: &mut Runner,
    out: &mut dyn Write,
) -> Result<(i32, String), String> {
    say!(
        out,
        "idabench run: seed {seed}, {repeat} pass(es) per workload"
    )?;
    let (mut failed, mut docs) = (0, Vec::new());
    for &w in workloads {
        let passes = (0..repeat.max(1))
            .map(|_| runner(w, seed, false))
            .collect::<Result<Vec<_>, _>>()?;
        print_metrics(w, &END_TO_END, &passes, out)?;
        let first = &passes[0];
        let unit = w.op_unit();
        say!(out, "{} ops {} {unit}", w.name(), first.ops)?;
        let ops_failed = passes.iter().map(|p| p.ops_failed).max().unwrap_or(0);
        say!(out, "{} ops_failed {ops_failed} {unit}", w.name())?;
        say!(out, "{} sim_digest {} fnv1a", w.name(), first.digest_hex())?;
        failed += print_checks(w, &merged_checks(&passes), out)?;
        docs.push(passes_json(w, &passes));
    }
    say!(out, "idabench run: {}", verdict(failed))?;
    let doc = JsonObj::new()
        .str("schema", "idabench-run/v1")
        .u64("seed", seed)
        .u64("repeat", repeat as u64)
        .bool("ok", failed == 0)
        .raw("workloads", &array(docs))
        .finish();
    Ok((i32::from(failed > 0), doc))
}

/// Facts about the traced pass that follow from how each workload is
/// built: which cells share a warm-up, and where garbage collection runs.
pub fn structural_checks(traced: &PassResult) -> Vec<Check> {
    let v = |name: &str| traced.get(name).unwrap_or(f64::NAN);
    let (hits, misses, gc) = (
        v("sweep.warm_hits"),
        v("sweep.warm_misses"),
        v("ftl.gc_runs"),
    );
    let cells = traced.ops as f64;
    match traced.workload {
        Workload::Fig8Grid => vec![Check::new(
            "warm_cache_shape",
            misses == cells && hits == 0.0,
            format!("{misses} misses and {hits} hits for {cells} cells (no two cells share a warm-up)"),
        )],
        Workload::FaultsGrid => vec![Check::new(
            "warm_cache_shape",
            misses == cells / 4.0 && hits == cells - cells / 4.0,
            format!("{misses} misses and {hits} hits for {cells} cells (four fault levels share each warm-up)"),
        )],
        Workload::ReplayRead => vec![Check::new(
            "no_gc_in_window",
            gc == 0.0,
            format!("{gc} GC runs in the measured window"),
        )],
        Workload::LoadWrite => vec![Check::new(
            "gc_in_window",
            gc > 0.0,
            format!("{gc} GC runs in the measured window"),
        )],
    }
}

/// The per-layer metrics every workload measures — the set
/// `BENCHMARK.json` lists.
pub fn gated_per_layer() -> Vec<MetricDef> {
    PER_LAYER
        .iter()
        .filter(|d| !WORKLOAD_SPECIFIC.contains(&d.name))
        .copied()
        .collect()
}

/// `trace`: one plain and one traced pass per workload; prints every
/// per-layer metric, the layer split of the traced wall time, and the
/// checks. Returns the exit code.
///
/// # Errors
///
/// A pass that could not run, or unwritable output.
fn cmd_trace(
    workloads: &[Workload],
    seed: u64,
    runner: &mut Runner,
    out: &mut dyn Write,
) -> Result<i32, String> {
    say!(out, "idabench trace: seed {seed}")?;
    let mut failed = 0;
    for &w in workloads {
        let plain = runner(w, seed, false)?;
        let mut traced = runner(w, seed, true)?;
        let (plain_wall, wall) = (plain.get("wall_s"), traced.get("wall_s"));
        if let (Some(p), Some(t)) = (plain_wall, wall) {
            traced.set("trace_overhead_frac", t / p - 1.0);
        }
        print_metrics(w, &PER_LAYER, std::slice::from_ref(&traced), out)?;
        let wall_ms = wall.unwrap_or(f64::NAN) * 1e3;
        for (key, v) in traced.values.iter().filter(|(k, _)| k.starts_with("self.")) {
            let layer = &key["self.".len()..key.len() - "_ms".len()];
            say!(
                out,
                "{} layer {layer} self {v:.1} ms ({:.1}% of {wall_ms:.1} ms traced wall)",
                w.name(),
                100.0 * v / wall_ms
            )?;
        }
        let mut checks = merged_checks(&[plain, traced.clone()]);
        checks.extend(structural_checks(&traced));
        failed += print_checks(w, &checks, out)?;
    }
    say!(out, "idabench trace: {}", verdict(failed))?;
    Ok(i32::from(failed > 0))
}

/// `drive`: the fixed-budget entry point. Runs passes of one workload
/// until another would overrun `seconds` (at least one), then prints one
/// JSON line: the medians of the gated end-to-end metrics (`trace` off)
/// or per-layer metrics (`trace` on, after one plain pass for the tracing
/// overhead), whether every check held, and the ops attempted and failed.
///
/// # Errors
///
/// A pass that could not run, a gated metric a pass did not measure, or
/// unwritable output.
pub fn cmd_drive(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    runner: &mut Runner,
    out: &mut dyn Write,
) -> Result<(), String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut plain = Vec::new();
    if trace {
        plain.push(runner(workload, seed, false)?);
    }
    let (mut measured, mut took) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        measured.push(runner(workload, seed, trace)?);
        took.push(t.elapsed().as_secs_f64());
        let next = Duration::from_secs_f64(stats::median(&took));
        if start.elapsed() + next > budget {
            break;
        }
    }
    let defs: Vec<MetricDef> = if trace {
        let walls: Vec<f64> = plain.iter().filter_map(|p| p.get("wall_s")).collect();
        let base = stats::median(&walls);
        for p in &mut measured {
            let wall = p.get("wall_s").unwrap_or(f64::NAN);
            p.set("trace_overhead_frac", wall / base - 1.0);
        }
        gated_per_layer()
    } else {
        GATED_END_TO_END.iter().filter_map(|n| def(n)).collect()
    };
    let mut metrics = JsonObj::new();
    for d in &defs {
        let xs: Vec<f64> = measured.iter().filter_map(|p| p.get(d.name)).collect();
        if xs.len() != measured.len() {
            return Err(format!(
                "{} passes did not measure {}",
                workload.name(),
                d.name
            ));
        }
        let v = stats::median(&xs);
        say!(
            out,
            "{} {} {} {}",
            workload.name(),
            d.name,
            fmt(v, d.unit),
            d.unit
        )?;
        metrics = metrics.raw(
            d.name,
            &JsonObj::new().f64("value", v).str("unit", d.unit).finish(),
        );
    }
    let all: Vec<PassResult> = plain.into_iter().chain(measured).collect();
    let mut checks = merged_checks(&all);
    if let Some(traced) = all.iter().find(|p| p.traced) {
        checks.extend(structural_checks(traced));
    }
    let failed_checks = print_checks(workload, &checks, out)?;
    say!(
        out,
        "{} passes: {} in {:.1} s",
        workload.name(),
        all.len(),
        start.elapsed().as_secs_f64()
    )?;
    let result = JsonObj::new()
        .bool("correct", failed_checks == 0)
        .u64("attempted", all.iter().map(|p| p.ops).sum())
        .u64("failed", all.iter().map(|p| p.ops_failed).sum())
        .raw("metrics", &metrics.finish())
        .finish();
    say!(out, "{}", result)
}

/// The passes of one `run --out -` document, by workload.
fn parse_run_doc(text: &str) -> Result<Vec<(Workload, Vec<PassResult>)>, String> {
    let doc = jsonv::parse(text)?;
    let Some(jsonv::JsonValue::Arr(items)) = doc.get("workloads") else {
        return Err("run document lacks \"workloads\"".into());
    };
    items
        .iter()
        .map(|item| {
            let name = item.get("workload").and_then(|v| v.as_str()).unwrap_or("");
            let Some(jsonv::JsonValue::Arr(passes)) = item.get("passes") else {
                return Err(format!("run document entry {name:?} lacks passes"));
            };
            let passes = passes
                .iter()
                .map(PassResult::from_value)
                .collect::<Result<Vec<_>, _>>()?;
            Ok((Workload::parse(name)?, passes))
        })
        .collect()
}

/// One `<bin> run --out -` invocation.
fn run_binary(
    bin: &Path,
    seed: u64,
    workload: Option<Workload>,
) -> Result<Vec<(Workload, Vec<PassResult>)>, String> {
    let mut cmd = Command::new(bin);
    cmd.args(["run", "--seed", &seed.to_string(), "--out", "-"]);
    if let Some(w) = workload {
        cmd.args(["--workload", w.name()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    // Exit code 1 means a check failed; the document is still complete.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!("{} run failed: {}", bin.display(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_run_doc(stdout.lines().last().unwrap_or(""))
}

/// Which side of a pair is better on `d`: +1 change, -1 parent, 0 tie.
fn winner(d: &MetricDef, parent: f64, change: f64) -> i32 {
    let sign = if d.better == "higher" { 1.0 } else { -1.0 };
    match ((change - parent) * sign).partial_cmp(&0.0) {
        Some(std::cmp::Ordering::Greater) => 1,
        Some(std::cmp::Ordering::Less) => -1,
        _ => 0,
    }
}

/// `compare`: `pairs` alternating runs of a parent and a change binary on
/// the same seed. Per workload and end-to-end metric it prints each
/// side's median and quartiles, the share of pairs the change won (ties
/// count for neither), and whether the medians differ by more than the
/// parent's IQR. A `sim_digest` that differs between the sides is
/// flagged and makes the exit code 1.
///
/// # Errors
///
/// A run that could not start or produced no document.
fn cmd_compare(
    parent: &Path,
    change: &Path,
    pairs: usize,
    seed: u64,
    workload: Option<Workload>,
    out: &mut dyn Write,
) -> Result<i32, String> {
    let pairs = pairs.max(1);
    // sides[0] = parent, sides[1] = change; per workload, one pass per pair.
    let mut sides: [BTreeMap<&'static str, Vec<PassResult>>; 2] = Default::default();
    for i in 0..pairs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = if side == 0 { parent } else { change };
            say!(out, "compare: pair {}/{pairs}, {}", i + 1, bin.display())?;
            for (w, passes) in run_binary(bin, seed, workload)? {
                sides[side].entry(w.name()).or_default().extend(passes);
            }
        }
    }
    let mut flagged = 0;
    for (name, parent_passes) in &sides[0] {
        let Some(change_passes) = sides[1].get(name) else {
            continue;
        };
        for d in &END_TO_END {
            let p: Vec<f64> = parent_passes.iter().filter_map(|r| r.get(d.name)).collect();
            let c: Vec<f64> = change_passes.iter().filter_map(|r| r.get(d.name)).collect();
            if p.is_empty() || p.len() != c.len() {
                continue;
            }
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(a, b)| winner(d, **a, **b) > 0)
                .count();
            let [p1, p2, p3] = stats::quartiles(&p);
            let [c1, c2, c3] = stats::quartiles(&c);
            let beyond = (c2 - p2).abs() > p3 - p1;
            say!(
                out,
                "{name} {} {} parent {} [{}, {}] change {} [{}, {}] change wins {wins}/{} \
                     (delta {:+.1}%, beyond parent IQR: {})",
                d.name,
                d.unit,
                fmt(p2, d.unit),
                fmt(p1, d.unit),
                fmt(p3, d.unit),
                fmt(c2, d.unit),
                fmt(c1, d.unit),
                fmt(c3, d.unit),
                p.len(),
                100.0 * (c2 - p2) / p2,
                if beyond { "yes" } else { "no" }
            )?;
        }
        let digests = |passes: &[PassResult]| {
            let mut d: Vec<String> = passes.iter().map(PassResult::digest_hex).collect();
            d.sort();
            d.dedup();
            d
        };
        let (pd, cd) = (digests(parent_passes), digests(change_passes));
        if pd != cd {
            flagged += 1;
            say!(
                out,
                "{name} sim_digest DIFFERS: parent {} change {}",
                pd.join(","),
                cd.join(",")
            )?;
        } else {
            say!(
                out,
                "{name} sim_digest same on both sides: {}",
                pd.join(",")
            )?;
        }
    }
    Ok(i32::from(flagged > 0))
}

/// Dispatch a command line (without the program name); returns the exit
/// code.
///
/// # Errors
///
/// Bad flags or a command that could not complete; the caller prints the
/// message and exits 2.
pub fn main(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let exe = || std::env::current_exe().map_err(|e| format!("cannot locate idabench: {e}"));
    match cmd.as_str() {
        "run" => {
            let f = Flags::parse(rest, &["seed", "workload", "repeat", "out"], &[])?;
            let seed = f.u64_or("seed", 1)?;
            let repeat = f.u64_or("repeat", 1)? as usize;
            let mut runner = child_runner(exe()?, None);
            let (code, doc) = cmd_run(&f.workloads()?, seed, repeat, &mut runner, &mut out)?;
            match f.get("out") {
                Some("-") => say!(&mut out, "{}", doc)?,
                Some(path) => std::fs::write(path, doc + "\n")
                    .map_err(|e| format!("cannot write {path}: {e}"))?,
                None => {}
            }
            Ok(code)
        }
        "trace" => {
            let f = Flags::parse(rest, &["seed", "workload", "trace-out"], &[])?;
            let spans = f.get("trace-out").map(PathBuf::from);
            if let Some(path) = &spans {
                std::fs::write(path, "")
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            }
            let mut runner = child_runner(exe()?, spans);
            cmd_trace(&f.workloads()?, f.u64_or("seed", 1)?, &mut runner, &mut out)
        }
        "compare" => {
            let f = Flags::parse(
                rest,
                &["parent", "change", "pairs", "seed", "workload"],
                &[],
            )?;
            let bin = |k: &str| {
                f.get(k)
                    .map(PathBuf::from)
                    .ok_or_else(|| format!("--{k} is required"))
            };
            let workload = f.get("workload").map(Workload::parse).transpose()?;
            cmd_compare(
                &bin("parent")?,
                &bin("change")?,
                f.u64_or("pairs", 10)? as usize,
                f.u64_or("seed", 1)?,
                workload,
                &mut out,
            )
        }
        "drive" => {
            let f = Flags::parse(rest, &["workload", "seed", "seconds", "trace"], &[])?;
            let workload = Workload::parse(f.get("workload").ok_or("--workload is required")?)?;
            let trace = match f.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
            };
            let mut runner = child_runner(exe()?, None);
            cmd_drive(
                workload,
                f.u64_required("seed")?,
                f.u64_required("seconds")?,
                trace,
                &mut runner,
                &mut out,
            )?;
            Ok(0)
        }
        "child" => {
            let f = Flags::parse(rest, &["workload", "seed", "spans"], &["traced"])?;
            cmd_child(&f, &mut out)
        }
        "help" | "--help" | "-h" => {
            say!(&mut out, "{}", USAGE)?;
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}
