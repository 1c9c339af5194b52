//! Offline analysis of JSONL event traces (`idasim trace`).
//!
//! Consumes the stream written by `--trace-out`: validates it (schema,
//! timestamp monotonicity, span conservation), replays the per-request
//! attribution spans into the same [`PhaseStats`] aggregates the
//! simulator builds in-sim (byte-identical JSON), ranks the slowest
//! reads with their phase waterfalls, rebuilds per-die / per-channel
//! utilization from the flash events, and diffs two traces
//! phase-by-phase.
//!
//! The loader is streaming and line-oriented: one parsed line at a
//! time, bounded state (the slow-read list is truncated as it grows),
//! so trace size is limited by disk, not memory.

use ida_obs::json::JsonObj;
use ida_obs::span::{Phase, PhaseNs, PhaseStats, ALL_PHASES};
use ida_obs::trace::TraceEvent;
use ida_sweep::jsonv::{self, JsonValue};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One read's attribution waterfall, kept for the slowest-reads table.
#[derive(Debug, Clone, Copy)]
pub struct SlowRead {
    /// Host request index.
    pub req: u64,
    /// Response time in simulated nanoseconds.
    pub total_ns: u64,
    /// Where those nanoseconds went.
    pub phases: PhaseNs,
}

/// Everything the analyzer learns from one pass over a trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Lines in the file.
    pub lines: usize,
    /// The run label from the opening `run_start`, if present.
    pub label: Option<String>,
    /// Replayed attribution over read spans.
    pub reads: PhaseStats,
    /// Replayed attribution over write spans.
    pub writes: PhaseStats,
    /// Spans whose phases did not sum to `total_ns` (gaps/overlaps).
    pub conservation_violations: u64,
    /// Spans disagreeing with their request's `host_complete` latency.
    pub latency_mismatches: u64,
    /// `read_retry` events seen (each is reconciled against its
    /// request's span `retry` phase).
    pub retry_events: u64,
    /// Read spans whose `retry` phase does not equal the summed
    /// `extra × attempt_ns` of their `read_retry` events.
    pub retry_mismatches: u64,
    /// Slowest reads, descending by response time (truncated).
    pub slowest_reads: Vec<SlowRead>,
    /// Per-die busy nanoseconds, unioned from flash-event windows.
    pub die_busy: Vec<u128>,
    /// Per-channel busy nanoseconds from bus-transfer windows.
    pub channel_busy: Vec<u128>,
    /// Timestamp of the first host arrival (measured window start).
    pub first_arrival: Option<u64>,
    /// Timestamp of the last host completion.
    pub last_completion: u64,
}

impl TraceStats {
    /// The measured window `[first_arrival, last_completion]` in ns.
    pub fn duration_ns(&self) -> u64 {
        match self.first_arrival {
            Some(first) => self.last_completion.saturating_sub(first),
            None => 0,
        }
    }

    /// `busy_ns` as a percentage of the measured window (0 when the
    /// trace carries no host traffic to define one).
    pub fn utilization_pct(&self, busy_ns: u128) -> f64 {
        let span = self.duration_ns();
        if span == 0 {
            0.0
        } else {
            busy_ns as f64 * 100.0 / span as f64
        }
    }

    /// The replayed attribution as the same `{"reads":…,"writes":…}`
    /// JSON object `Report::attribution_json` emits — byte-identical to
    /// the in-sim aggregate for an unfiltered trace of the same run.
    pub fn attribution_json(&self) -> String {
        JsonObj::new()
            .raw("reads", &self.reads.to_json())
            .raw("writes", &self.writes.to_json())
            .finish()
    }
}

fn field<'a>(v: &'a JsonValue, key: &str, line_no: usize) -> Result<&'a JsonValue, String> {
    v.get(key)
        .ok_or_else(|| format!("line {line_no}: missing field `{key}`"))
}

fn u64_field(v: &JsonValue, key: &str, line_no: usize) -> Result<u64, String> {
    field(v, key, line_no)?
        .as_u64()
        .ok_or_else(|| format!("line {line_no}: field `{key}` is not an unsigned integer"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str, line_no: usize) -> Result<&'a str, String> {
    field(v, key, line_no)?
        .as_str()
        .ok_or_else(|| format!("line {line_no}: field `{key}` is not a string"))
}

/// Mark `[start, end)` busy on `marks[idx]`, counting only the part not
/// already covered — the same coverage-mark union the simulator uses
/// (windows arrive in non-decreasing `start` order).
fn mark_busy(busy: &mut Vec<u128>, marks: &mut Vec<u64>, idx: usize, start: u64, end: u64) {
    if busy.len() <= idx {
        busy.resize(idx + 1, 0);
        marks.resize(idx + 1, 0);
    }
    let from = start.max(marks[idx]);
    if end > from {
        busy[idx] += (end - from) as u128;
        marks[idx] = end;
    }
}

/// Parse and aggregate a trace, keeping at most `keep` slowest reads.
///
/// # Errors
///
/// Returns a line-tagged message for unreadable files, malformed JSON,
/// unknown event kinds, missing/mistyped fields, or timestamps that go
/// backwards inside the measured window.
pub fn load(path: &Path, keep: usize) -> Result<TraceStats, String> {
    let unreadable = |e: io::Error| format!("cannot read trace {}: {e}", path.display());
    let reader = BufReader::new(File::open(path).map_err(unreadable)?);
    let mut stats = TraceStats {
        lines: 0,
        label: None,
        reads: PhaseStats::new(),
        writes: PhaseStats::new(),
        conservation_violations: 0,
        latency_mismatches: 0,
        retry_events: 0,
        retry_mismatches: 0,
        slowest_reads: Vec::new(),
        die_busy: Vec::new(),
        channel_busy: Vec::new(),
        first_arrival: None,
        last_completion: 0,
    };
    let mut die_marks: Vec<u64> = Vec::new();
    let mut channel_marks: Vec<u64> = Vec::new();
    // Latency of each completed-but-not-yet-spanned request; the span
    // follows its host_complete immediately, so this stays tiny.
    let mut pending: HashMap<u64, (u64, u64)> = HashMap::new();
    // Retry nanoseconds charged per request, accumulated from
    // `read_retry` events (`extra × attempt_ns` per flash op) and
    // reconciled against the request's span `retry` phase.
    let mut retry_charge: HashMap<u64, u64> = HashMap::new();
    // Warm-up events (GC/refresh with staggered stamps) may precede the
    // measured window; monotonicity is enforced from the first host
    // arrival on, and always across flash/span events (which only the
    // measured window emits).
    let mut measured = false;
    let mut mono_prev = 0u64;
    let keep = keep.max(1);

    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line.map_err(unreadable)?;
        stats.lines += 1;
        let v = jsonv::parse(&line).map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = str_field(&v, "ev", line_no)?;
        if !TraceEvent::KINDS.contains(&kind) {
            return Err(format!("line {line_no}: unknown event kind `{kind}`"));
        }
        let t = u64_field(&v, "t", line_no)?;
        let flash_or_span = matches!(
            kind,
            "sense" | "program" | "erase" | "voltage_adjust" | "span"
        );
        if measured || flash_or_span {
            if t < mono_prev {
                return Err(format!(
                    "line {line_no}: timestamp {t} goes backwards (previous {mono_prev})"
                ));
            }
            mono_prev = t;
        }
        match kind {
            "run_start" if stats.label.is_none() => {
                stats.label = Some(str_field(&v, "label", line_no)?.to_string());
            }
            "host_arrival" => {
                measured = true;
                mono_prev = mono_prev.max(t);
                if stats.first_arrival.is_none() {
                    stats.first_arrival = Some(t);
                }
            }
            "host_complete" => {
                let req = u64_field(&v, "req", line_no)?;
                let latency = u64_field(&v, "latency_ns", line_no)?;
                stats.last_completion = stats.last_completion.max(t);
                pending.insert(req, (latency, t));
            }
            "sense" => {
                let die = u64_field(&v, "die", line_no)? as usize;
                let channel = u64_field(&v, "channel", line_no)? as usize;
                let bus_start = u64_field(&v, "bus_start", line_no)?;
                let bus_end = u64_field(&v, "bus_end", line_no)?;
                // The die is held from issue to the end of the transfer
                // (read-first suspension frees it before ECC decode).
                mark_busy(&mut stats.die_busy, &mut die_marks, die, t, bus_end);
                mark_busy(
                    &mut stats.channel_busy,
                    &mut channel_marks,
                    channel,
                    bus_start,
                    bus_end,
                );
            }
            "program" => {
                let die = u64_field(&v, "die", line_no)? as usize;
                let channel = u64_field(&v, "channel", line_no)? as usize;
                let bus_start = u64_field(&v, "bus_start", line_no)?;
                let bus_end = u64_field(&v, "bus_end", line_no)?;
                let end = u64_field(&v, "end", line_no)?;
                mark_busy(&mut stats.die_busy, &mut die_marks, die, t, end);
                mark_busy(
                    &mut stats.channel_busy,
                    &mut channel_marks,
                    channel,
                    bus_start,
                    bus_end,
                );
            }
            "read_retry" => {
                let req = u64_field(&v, "req", line_no)?;
                let extra = u64_field(&v, "extra", line_no)?;
                let attempt_ns = u64_field(&v, "attempt_ns", line_no)?;
                stats.retry_events += 1;
                // Each retry repeats the op's full sensing procedure, so
                // the span must charge exactly extra × attempt_ns.
                *retry_charge.entry(req).or_default() += extra * attempt_ns;
            }
            "erase" | "voltage_adjust" => {
                let die = u64_field(&v, "die", line_no)? as usize;
                let end = u64_field(&v, "end", line_no)?;
                mark_busy(&mut stats.die_busy, &mut die_marks, die, t, end);
            }
            "span" => {
                let req = u64_field(&v, "req", line_no)?;
                let class = str_field(&v, "class", line_no)?;
                let total_ns = u64_field(&v, "total_ns", line_no)?;
                let mut phases = PhaseNs::zero();
                for p in ALL_PHASES {
                    if let Some(ns) = v.get(p.label()) {
                        let ns = ns.as_u64().ok_or_else(|| {
                            format!("line {line_no}: phase `{}` is not an integer", p.label())
                        })?;
                        phases.set(p, ns);
                    }
                }
                if phases.total() != total_ns {
                    stats.conservation_violations += 1;
                }
                if let Some((latency, done_at)) = pending.remove(&req) {
                    if latency != total_ns || done_at != t {
                        stats.latency_mismatches += 1;
                    }
                }
                // Every read_retry event must reconcile with its span:
                // attempts × per-attempt sense cost == charged retry ns.
                // (Checked only when the request emitted retry events, so
                // kind-filtered traces do not raise false alarms.)
                if let Some(charge) = retry_charge.remove(&req) {
                    if phases.get(Phase::Retry) != charge {
                        stats.retry_mismatches += 1;
                    }
                }
                match class {
                    "read" => {
                        stats.reads.record(&phases);
                        stats.slowest_reads.push(SlowRead {
                            req,
                            total_ns,
                            phases,
                        });
                        // Keep the list bounded: settle to the top `keep`
                        // whenever it grows past a small multiple.
                        if stats.slowest_reads.len() > keep.saturating_mul(4) + 64 {
                            truncate_slowest(&mut stats.slowest_reads, keep);
                        }
                    }
                    "write" => stats.writes.record(&phases),
                    other => {
                        return Err(format!("line {line_no}: unknown span class `{other}`"));
                    }
                }
            }
            _ => {}
        }
    }
    truncate_slowest(&mut stats.slowest_reads, keep);
    Ok(stats)
}

/// Sort descending by response time (request index breaks ties so the
/// order is deterministic) and keep the first `keep`.
fn truncate_slowest(slowest: &mut Vec<SlowRead>, keep: usize) {
    slowest.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.req.cmp(&b.req)));
    slowest.truncate(keep);
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// [`load`] with up to `keep` slowest reads, then the conservation,
/// latency and retry checks, and the validation summary as text.
fn load_checked(path: &Path, keep: usize) -> Result<(TraceStats, String), String> {
    let stats = load(path, keep)?;
    let spans = stats.reads.count() + stats.writes.count();
    if stats.conservation_violations > 0 {
        return Err(format!(
            "{}: {} of {} spans violate conservation (phases do not sum to total_ns)",
            path.display(),
            stats.conservation_violations,
            spans
        ));
    }
    if stats.latency_mismatches > 0 {
        return Err(format!(
            "{}: {} spans disagree with their host_complete latency",
            path.display(),
            stats.latency_mismatches
        ));
    }
    if stats.retry_mismatches > 0 {
        return Err(format!(
            "{}: {} read spans disagree with their read_retry events \
             (extra × attempt_ns != charged retry ns)",
            path.display(),
            stats.retry_mismatches
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: ok — {} lines{}",
        path.display(),
        stats.lines,
        stats
            .label
            .as_deref()
            .map(|l| format!(" (run {l})"))
            .unwrap_or_default()
    );
    let _ = writeln!(
        out,
        "  schema valid, timestamps monotone in the measured window"
    );
    let _ = writeln!(
        out,
        "  {spans} spans ({} read, {} write), conservation exact on every one",
        stats.reads.count(),
        stats.writes.count()
    );
    if stats.retry_events > 0 {
        let _ = writeln!(
            out,
            "  {} read_retry events, all reconciled with their span retry phase",
            stats.retry_events
        );
    }
    Ok((stats, out))
}

/// Validate a trace and summarize the result.
///
/// # Errors
///
/// Returns the first schema / monotonicity problem, or a summary of any
/// conservation or latency-consistency violations.
pub fn validate(path: &Path) -> Result<String, String> {
    load_checked(path, 1).map(|(_, summary)| summary)
}

fn render_attribution(out: &mut String, title: &str, stats: &PhaseStats) {
    if stats.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "\n{title} ({} requests, mean {:.1} us):",
        stats.count(),
        stats.grand_total() as f64 / stats.count() as f64 / 1e3
    );
    for p in ALL_PHASES {
        if stats.total(p) == 0 {
            continue;
        }
        let h = stats.histogram(p);
        let _ = writeln!(
            out,
            "  {:13} {:10.1} us avg  {:5.1} %   p99 {:10.1} us  ({} touched)",
            p.label(),
            stats.mean(p) / 1e3,
            stats.share_pct(p),
            us(h.percentile(99.0)),
            h.count()
        );
    }
}

/// Full analysis report: validation summary, attribution waterfalls,
/// slowest reads, utilization.
///
/// # Errors
///
/// Same failure modes as [`validate`].
pub fn report(path: &Path, top: usize) -> Result<String, String> {
    let (stats, mut out) = load_checked(path, top)?;
    render_attribution(&mut out, "read attribution", &stats.reads);
    render_attribution(&mut out, "write attribution", &stats.writes);
    if !stats.slowest_reads.is_empty() {
        let _ = writeln!(
            out,
            "\ntop {} slowest reads:",
            stats.slowest_reads.len().min(top)
        );
        for s in stats.slowest_reads.iter().take(top) {
            let mut parts = Vec::new();
            for (phase, ns) in s.phases.iter() {
                if ns > 0 {
                    parts.push(format!("{} {:.1}", phase.label(), us(ns)));
                }
            }
            let _ = writeln!(
                out,
                "  req {:<8} {:10.1} us = {}",
                s.req,
                us(s.total_ns),
                parts.join(" + ")
            );
        }
    }
    if !stats.die_busy.is_empty() || !stats.channel_busy.is_empty() {
        let _ = writeln!(
            out,
            "\nutilization (rebuilt from flash events over {:.1} ms):",
            stats.duration_ns() as f64 / 1e6
        );
        for (i, busy) in stats.die_busy.iter().enumerate() {
            let _ = writeln!(out, "  die {i:<5} {:5.1} %", stats.utilization_pct(*busy));
        }
        for (i, busy) in stats.channel_busy.iter().enumerate() {
            let _ = writeln!(
                out,
                "  channel {i:<1} {:5.1} %",
                stats.utilization_pct(*busy)
            );
        }
    }
    Ok(out)
}

/// Compare two traces phase-by-phase (read attribution).
///
/// # Errors
///
/// Fails if either trace fails to load.
pub fn diff(a: &Path, b: &Path) -> Result<String, String> {
    let sa = load(a, 1)?;
    let sb = load(b, 1)?;
    let mut out = String::new();
    let name =
        |s: &TraceStats, p: &Path| s.label.clone().unwrap_or_else(|| p.display().to_string());
    let la = name(&sa, a);
    let lb = name(&sb, b);
    let _ = writeln!(out, "trace diff: {la} vs {lb}");
    let mean = |s: &PhaseStats| {
        if s.count() == 0 {
            0.0
        } else {
            s.grand_total() as f64 / s.count() as f64 / 1e3
        }
    };
    let (ma, mb) = (mean(&sa.reads), mean(&sb.reads));
    let _ = writeln!(
        out,
        "reads: {} vs {}; mean response {:.1} us vs {:.1} us ({:+.1} %)",
        sa.reads.count(),
        sb.reads.count(),
        ma,
        mb,
        if ma > 0.0 {
            (mb - ma) * 100.0 / ma
        } else {
            0.0
        }
    );
    let _ = writeln!(
        out,
        "{:15} {:>12} {:>12} {:>12} {:>9}",
        "phase", "a mean us", "b mean us", "delta us", "delta %"
    );
    for p in ALL_PHASES {
        let (pa, pb) = (sa.reads.mean(p) / 1e3, sb.reads.mean(p) / 1e3);
        if pa == 0.0 && pb == 0.0 {
            continue;
        }
        let pct = if pa > 0.0 {
            format!("{:+8.1}", (pb - pa) * 100.0 / pa)
        } else {
            "      new".to_string()
        };
        let _ = writeln!(
            out,
            "  {:13} {:12.1} {:12.1} {:+12.1} {:>9}",
            p.label(),
            pa,
            pb,
            pb - pa,
            pct
        );
    }
    let _ = writeln!(
        out,
        "conservation violations: {} vs {}",
        sa.conservation_violations, sb.conservation_violations
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ida_obs::span::Phase;
    use std::path::PathBuf;

    fn write_trace(name: &str, lines: &[&str]) -> PathBuf {
        let dir = std::env::temp_dir().join("ida_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    const SPAN_LINE: &str = "{\"ev\":\"span\",\"t\":216000,\"req\":0,\"class\":\"read\",\
                             \"total_ns\":216000,\"queue_host\":98000,\"sense\":50000,\
                             \"transfer\":48000,\"ecc\":20000}";

    #[test]
    fn validates_and_replays_a_tiny_trace() {
        let path = write_trace(
            "tiny.jsonl",
            &[
                "{\"ev\":\"run_start\",\"t\":0,\"label\":\"T\"}",
                "{\"ev\":\"host_arrival\",\"t\":0,\"req\":0,\"class\":\"read\",\"lpn\":1,\"pages\":1}",
                "{\"ev\":\"sense\",\"t\":0,\"channel\":0,\"die\":0,\"block\":1,\"page\":0,\
                 \"senses\":1,\"retries\":0,\"background\":false,\"bus_start\":98000,\
                 \"bus_end\":146000,\"end\":166000}",
                "{\"ev\":\"host_complete\",\"t\":216000,\"req\":0,\"class\":\"read\",\
                 \"latency_ns\":216000}",
                SPAN_LINE,
            ],
        );
        let ok = validate(&path).unwrap();
        assert!(ok.contains("conservation exact"), "summary: {ok}");
        let stats = load(&path, 5).unwrap();
        assert_eq!(stats.label.as_deref(), Some("T"));
        assert_eq!(stats.reads.count(), 1);
        assert_eq!(stats.reads.grand_total(), 216_000);
        assert_eq!(stats.reads.total(Phase::QueueHost), 98_000);
        assert_eq!(stats.conservation_violations, 0);
        assert_eq!(stats.latency_mismatches, 0);
        assert_eq!(stats.slowest_reads.len(), 1);
        // die busy [0, 146000); channel busy [98000, 146000).
        assert_eq!(stats.die_busy, vec![146_000]);
        assert_eq!(stats.channel_busy, vec![48_000]);
        assert_eq!(stats.duration_ns(), 216_000);
        let text = report(&path, 5).unwrap();
        assert!(text.contains("read attribution"), "report: {text}");
        assert!(text.contains("queue_host"), "report: {text}");
        assert!(text.contains("req 0"), "report: {text}");
    }

    #[test]
    fn rejects_garbage_unknown_kinds_and_broken_spans() {
        let bad_json = write_trace("bad_json.jsonl", &["{nope"]);
        assert!(load(&bad_json, 1).unwrap_err().contains("line 1"));

        let unknown = write_trace("unknown.jsonl", &["{\"ev\":\"frobnicate\",\"t\":3}"]);
        assert!(load(&unknown, 1)
            .unwrap_err()
            .contains("unknown event kind"));

        let broken = write_trace(
            "broken_span.jsonl",
            &[
                "{\"ev\":\"span\",\"t\":5,\"req\":0,\"class\":\"read\",\"total_ns\":100,\
               \"sense\":40}",
            ],
        );
        let stats = load(&broken, 1).unwrap();
        assert_eq!(stats.conservation_violations, 1);
        let err = validate(&broken).unwrap_err();
        assert!(err.contains("conservation"), "error: {err}");
    }

    #[test]
    fn rejects_backwards_timestamps_in_the_measured_window() {
        let path = write_trace(
            "backwards.jsonl",
            &[
                "{\"ev\":\"host_arrival\",\"t\":100,\"req\":0,\"class\":\"read\",\"lpn\":1,\
                 \"pages\":1}",
                "{\"ev\":\"host_complete\",\"t\":50,\"req\":0,\"class\":\"read\",\
                 \"latency_ns\":10}",
            ],
        );
        let err = load(&path, 1).unwrap_err();
        assert!(err.contains("backwards"), "error: {err}");
        // Warm-up events before the first arrival may be staggered.
        let warm = write_trace(
            "warmup.jsonl",
            &[
                "{\"ev\":\"gc_run\",\"t\":900,\"block\":1,\"copies\":2}",
                "{\"ev\":\"gc_run\",\"t\":100,\"block\":2,\"copies\":2}",
                "{\"ev\":\"host_arrival\",\"t\":0,\"req\":0,\"class\":\"read\",\"lpn\":1,\
                 \"pages\":1}",
            ],
        );
        assert!(load(&warm, 1).is_ok());
    }

    #[test]
    fn span_latency_mismatch_fails_validation() {
        let path = write_trace(
            "mismatch.jsonl",
            &[
                "{\"ev\":\"host_complete\",\"t\":216000,\"req\":0,\"class\":\"read\",\
                 \"latency_ns\":999}",
                SPAN_LINE,
            ],
        );
        let stats = load(&path, 1).unwrap();
        assert_eq!(stats.latency_mismatches, 1);
        assert!(validate(&path).unwrap_err().contains("host_complete"));
    }

    #[test]
    fn aging_kinds_parse_and_retry_events_reconcile_with_spans() {
        // Two retried ops on one request: 2×50us + 1×150us = 250us of
        // retry, matching the span's retry phase exactly.
        let path = write_trace(
            "retry_ok.jsonl",
            &[
                "{\"ev\":\"scrub_pass\",\"t\":0,\"scanned\":8,\"relocated\":1,\"wear_moves\":0}",
                "{\"ev\":\"wear_level\",\"t\":1,\"block\":3,\"moves\":2,\"spread\":70}",
                "{\"ev\":\"ecc_uncorrectable\",\"t\":2,\"lpn\":9,\"page\":17,\"block\":1,\
                 \"attempts\":5}",
                "{\"ev\":\"read_retry\",\"t\":3,\"die\":0,\"req\":0,\"extra\":2,\
                 \"attempt_ns\":50000}",
                "{\"ev\":\"read_retry\",\"t\":4,\"die\":1,\"req\":0,\"extra\":1,\
                 \"attempt_ns\":150000}",
                "{\"ev\":\"span\",\"t\":500000,\"req\":0,\"class\":\"read\",\
                 \"total_ns\":500000,\"sense\":182000,\"retry\":250000,\"transfer\":48000,\
                 \"ecc\":20000}",
            ],
        );
        let stats = load(&path, 1).unwrap();
        assert_eq!(stats.retry_events, 2);
        assert_eq!(stats.retry_mismatches, 0);
        let ok = validate(&path).unwrap();
        assert!(ok.contains("2 read_retry events"), "summary: {ok}");
    }

    #[test]
    fn retry_span_disagreement_fails_validation() {
        let path = write_trace(
            "retry_bad.jsonl",
            &[
                "{\"ev\":\"read_retry\",\"t\":3,\"die\":0,\"req\":0,\"extra\":2,\
                 \"attempt_ns\":50000}",
                "{\"ev\":\"span\",\"t\":300000,\"req\":0,\"class\":\"read\",\
                 \"total_ns\":300000,\"sense\":182000,\"retry\":50000,\"transfer\":48000,\
                 \"ecc\":20000}",
            ],
        );
        let stats = load(&path, 1).unwrap();
        assert_eq!(stats.retry_mismatches, 1);
        let err = validate(&path).unwrap_err();
        assert!(err.contains("read_retry"), "error: {err}");
    }

    #[test]
    fn diff_of_a_trace_with_itself_is_all_zero() {
        let path = write_trace(
            "self.jsonl",
            &["{\"ev\":\"run_start\",\"t\":0,\"label\":\"S\"}", SPAN_LINE],
        );
        let text = diff(&path, &path).unwrap();
        assert!(text.contains("trace diff: S vs S"), "diff: {text}");
        assert!(text.contains("(+0.0 %)"), "diff: {text}");
        assert!(
            text.contains("conservation violations: 0 vs 0"),
            "diff: {text}"
        );
    }

    #[test]
    fn attribution_json_matches_phase_stats_encoding() {
        let path = write_trace("attr.jsonl", &[SPAN_LINE]);
        let stats = load(&path, 1).unwrap();
        let json = stats.attribution_json();
        assert!(json.starts_with("{\"reads\":{\"count\":1,"), "json: {json}");
        assert!(json.contains("\"writes\":{\"count\":0,"), "json: {json}");
    }
}
