//! Wall-clock spans recorded from outside the simulator's crates.
//!
//! Each span brackets one call into a layer's public API; its name is
//! `<layer>.<what>` (`ftl.warm_write`, `snap.restore`, ...). Spans are
//! kept in memory and written as JSONL when the run ends. A layer's self
//! time is the duration of its spans minus the part of each interval that
//! child spans cover.
//!
//! The driver is a closed loop with one caller, so the tracer keeps one
//! stack of open spans for the whole process: a sweep's single worker
//! thread nests its cell spans under the span the coordinating thread
//! opened around `run_cells`.

use ida_obs::json::JsonObj;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one tracer (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The benchmark workload that produced the span.
    pub workload: String,
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON object (one JSONL line without the newline).
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        JsonObj::new()
            .u64("id", self.id)
            .raw("parent", &parent)
            .str("workload", &self.workload)
            .str("name", &self.name)
            .u64("start_ns", self.start_ns)
            .u64("end_ns", self.end_ns)
            .finish()
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, innermost last.
    open: Vec<usize>,
}

/// Records spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: String,
    state: Mutex<State>,
}

/// Closes its span when dropped, so a span opened around a call that
/// panics (a sweep cell under `catch_unwind`) still closes.
struct Open<'a> {
    tracer: &'a Tracer,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut st = self.tracer.lock();
        if let Some(idx) = st.open.pop() {
            st.spans[idx].end_ns = now;
        }
    }
}

impl Tracer {
    /// A tracer whose spans are tagged with `workload`.
    pub fn new(workload: &str) -> Self {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A cell that panicked inside a span leaves consistent state
        // behind (its guard already closed the span), so a poisoned
        // lock is safe to keep using.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append a span nested under the innermost open one; returns its index.
    fn push(&self, st: &mut State, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let parent = st.open.last().map(|&i| st.spans[i].id);
        let idx = st.spans.len();
        st.spans.push(Span {
            id: idx as u64 + 1,
            parent,
            workload: self.workload.clone(),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        idx
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        {
            let mut st = self.lock();
            let idx = self.push(&mut st, name, start, start);
            st.open.push(idx);
        }
        let _open = Open { tracer: self };
        f()
    }

    /// Record `ns` of work that happened in many short pieces inside the
    /// innermost open span (e.g. every arrival-source pull of a replay)
    /// as one child span starting where its parent started. Self times
    /// stay exact: the parent loses exactly `ns`.
    pub fn record_aggregate(&self, name: &str, ns: u64) {
        let now = self.now_ns();
        let mut st = self.lock();
        let start = st.open.last().map_or(now, |&i| st.spans[i].start_ns);
        self.push(&mut st, name, start, start + ns);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// The self time of each span (same order as `spans`): its duration
/// minus the union of its children's intervals clipped to its own.
/// Children may overlap one another; overlapping time is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans under (and including) the span with id `root`.
pub fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let mut keep = vec![root];
    let mut out = Vec::new();
    // Spans are recorded in opening order, so a parent precedes its
    // children and one forward pass finds the whole subtree.
    for s in spans {
        if s.id == root || s.parent.is_some_and(|p| keep.contains(&p)) {
            if s.id != root {
                keep.push(s.id);
            }
            out.push(s.clone());
        }
    }
    out
}

/// Total self time per layer, ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += t;
    }
    out
}

/// Total self time per span name, ns.
pub(crate) fn name_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}
