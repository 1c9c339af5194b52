//! The workloads, the metric registry, and one pass's result.
//!
//! A *pass* is one execution of one workload in one process: the unit
//! the commands repeat, summarise and compare. Its result travels from
//! the child process to the parent as one JSON line.

use ida_obs::json::{array, JsonObj};
use ida_sweep::jsonv::{self, JsonValue};
use std::collections::BTreeMap;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 8 smoke grid (110 cells) with the warm cache on.
    Fig8Grid,
    /// The faults smoke grid (88 cells) with the warm cache on.
    FaultsGrid,
    /// A long read-heavy open-loop replay on Baseline and IDA-E20.
    ReplayRead,
    /// A write-heavy three-tenant Poisson load through the host frontend.
    LoadWrite,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig8Grid,
        Workload::FaultsGrid,
        Workload::ReplayRead,
        Workload::LoadWrite,
    ];

    /// The workload's name on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Grid => "fig8_grid",
            Workload::FaultsGrid => "faults_grid",
            Workload::ReplayRead => "replay_read",
            Workload::LoadWrite => "load_write",
        }
    }

    /// Look a workload up by name.
    ///
    /// # Errors
    ///
    /// Names the valid workloads when `name` is none of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (expected {})", names.join(", "))
            })
    }

    /// Whether the workload is a sweep grid (its ops are cells).
    pub fn is_grid(self) -> bool {
        matches!(self, Workload::Fig8Grid | Workload::FaultsGrid)
    }

    /// What one op of the workload is.
    pub fn op_unit(self) -> &'static str {
        if self.is_grid() {
            "cells"
        } else {
            "requests"
        }
    }
}

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`. For work counts, less work is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. A pass carries the
/// ones that apply to its workload.
pub const END_TO_END: [MetricDef; 7] = [
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("cells_per_s", "1/s", "higher"),
    m("sim_events_per_s", "events/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
    m("paper_err", "1", "lower"),
];

/// The end-to-end metrics every workload reports — the set
/// `BENCHMARK.json` gates on.
pub const GATED_END_TO_END: [&str; 4] = ["wall_s", "setup_s", "ops_per_s", "peak_rss_mib"];

/// Per-layer metrics, measured by a traced pass.
pub const PER_LAYER: [MetricDef; 36] = [
    m("bench.warm_up_ms", "ms", "lower"),
    m("ssd.construct_ms", "ms", "lower"),
    m("workloads.gen_ms", "ms", "lower"),
    m("ftl.warm_write_ms", "ms", "lower"),
    m("ftl.warm_writes", "count", "lower"),
    m("ftl.warm_write_ns", "ns", "lower"),
    m("core.refresh_ms", "ms", "lower"),
    m("core.refreshes", "count", "lower"),
    m("core.ida_conversions", "count", "lower"),
    m("core.voltage_adjusts", "count", "lower"),
    m("ssd.replay_ms", "ms", "lower"),
    m("ssd.events", "count", "lower"),
    m("ssd.flash_ops", "count", "lower"),
    m("ssd.ns_per_event", "ns", "lower"),
    m("obs.span_ms", "ms", "lower"),
    m("host.source_ms", "ms", "lower"),
    m("host.pulls", "count", "lower"),
    m("host.delayed", "count", "lower"),
    m("host.shed", "count", "lower"),
    m("ftl.gc_runs", "count", "lower"),
    m("ftl.gc_copies", "count", "lower"),
    m("ftl.erases", "count", "lower"),
    m("ftl.write_amp", "ratio", "lower"),
    m("snap.capture_ms", "ms", "lower"),
    m("snap.restore_ms", "ms", "lower"),
    m("snap.image_bytes", "bytes", "lower"),
    m("sweep.warm_hits", "count", "higher"),
    m("sweep.warm_misses", "count", "lower"),
    m("sweep.warm_held_mib", "MiB", "lower"),
    m("sweep.cell_p50_ms", "ms", "lower"),
    m("sweep.cell_p85_ms", "ms", "lower"),
    m("sweep.pool_ms", "ms", "lower"),
    m("sweep.aggregate_ms", "ms", "lower"),
    m("faults.injected", "count", "lower"),
    m("faults.recoveries", "count", "lower"),
    m("trace_overhead_frac", "fraction", "lower"),
];

/// Per-layer metrics that only some workloads exercise (no host frontend
/// outside `load_write`, no sweep pool outside the grids). They are
/// printed by `trace` where they apply and left out of the gated set,
/// which holds the metrics every workload measures.
pub(crate) const WORKLOAD_SPECIFIC: [&str; 5] = [
    "host.source_ms",
    "sweep.cell_p50_ms",
    "sweep.cell_p85_ms",
    "sweep.pool_ms",
    "sweep.aggregate_ms",
];

/// The definition of a registered metric.
pub fn def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .copied()
}

/// One correctness check's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short check name.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was observed.
    pub detail: String,
}

impl Check {
    /// A verdict.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// One pass of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Whether spans were recorded (per-layer pass).
    pub traced: bool,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Ops attempted: cells for grids, host requests otherwise.
    pub ops: u64,
    /// Failed cells, or requests not completed or shed.
    pub ops_failed: u64,
    /// FNV-1a of the simulated outputs (the sweep aggregate, or each
    /// system's payload); a speed-only change leaves it unchanged.
    pub digest: u64,
    /// Correctness checks run during the pass.
    pub checks: Vec<Check>,
}

impl PassResult {
    /// An empty result for `workload`.
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Self {
        PassResult {
            workload,
            seed,
            traced,
            values: BTreeMap::new(),
            ops: 0,
            ops_failed: 0,
            digest: 0,
            checks: Vec::new(),
        }
    }

    /// Set a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A metric value, if the pass measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// The digest as printed: 16 hex digits.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let values = self
            .values
            .iter()
            .fold(JsonObj::new(), |o, (k, v)| o.f64(k, *v))
            .finish();
        let checks = array(self.checks.iter().map(|c| {
            JsonObj::new()
                .str("name", &c.name)
                .bool("ok", c.ok)
                .str("detail", &c.detail)
                .finish()
        }));
        JsonObj::new()
            .str("workload", self.workload.name())
            .u64("seed", self.seed)
            .bool("traced", self.traced)
            .raw("values", &values)
            .u64("ops", self.ops)
            .u64("ops_failed", self.ops_failed)
            .str("sim_digest", &self.digest_hex())
            .raw("checks", &checks)
            .finish()
    }

    /// Parse [`PassResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = jsonv::parse(text)?;
        Self::from_value(&v)
    }

    /// Parse an already-parsed [`PassResult::to_json`] object.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn from_value(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("pass result lacks {k:?}"));
        let workload = Workload::parse(field("workload")?.as_str().ok_or("bad workload")?)?;
        let mut out = PassResult::new(
            workload,
            field("seed")?.as_u64().ok_or("bad seed")?,
            field("traced")?.as_bool().ok_or("bad traced")?,
        );
        if let JsonValue::Obj(values) = field("values")? {
            // Non-finite values were written as null; they stay unset.
            for (k, val) in values {
                if let Some(x) = val.as_f64() {
                    out.set(k, x);
                }
            }
        }
        out.ops = field("ops")?.as_u64().ok_or("bad ops")?;
        out.ops_failed = field("ops_failed")?.as_u64().ok_or("bad ops_failed")?;
        let digest = field("sim_digest")?.as_str().ok_or("bad sim_digest")?;
        out.digest = u64::from_str_radix(digest, 16).map_err(|e| format!("bad sim_digest: {e}"))?;
        if let JsonValue::Arr(checks) = field("checks")? {
            for c in checks {
                let s = |k: &str| c.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                let ok = c.get("ok").and_then(|x| x.as_bool()).ok_or("bad check")?;
                out.checks.push(Check::new(&s("name"), ok, s("detail")));
            }
        }
        Ok(out)
    }
}
