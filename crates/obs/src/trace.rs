//! Structured event tracing.
//!
//! Every layer of the simulation stack emits typed [`TraceEvent`]s carrying
//! the simulated timestamp. Events flow through a pluggable [`TraceSink`]:
//! the zero-cost [`NullSink`] (the default — emission sites skip event
//! construction entirely when the sink is off), a [`JsonlSink`] appending
//! one JSON object per line to a file, and a [`VecSink`] for tests.
//!
//! Determinism contract: simulation inputs (config + seeds) fully determine
//! the event sequence, and [`TraceEvent::to_json_line`] renders fields in a
//! fixed order with integer-only values — so a fixed-seed run produces a
//! byte-identical JSONL trace.

use crate::json::JsonObj;
use crate::span::PhaseNs;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Simulated time in nanoseconds (mirrors `ida_flash::timing::SimTime`
/// without a dependency edge).
pub type SimNs = u64;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostOpKind {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

impl HostOpKind {
    /// Stable lowercase label used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            HostOpKind::Read => "read",
            HostOpKind::Write => "write",
        }
    }
}

/// One host I/O request, already aligned to logical pages: a record of a
/// generated or imported trace and the simulator's input, one type from
/// `ida-workloads` to `ida-ssd` (both re-export it). It lives here, beside
/// the `host_arrival` event that reports it, because this is the one crate
/// both of them depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOp {
    /// Arrival time (ns).
    pub at: SimNs,
    /// Read or write.
    pub kind: HostOpKind,
    /// First logical page touched.
    pub lpn: u64,
    /// Number of consecutive logical pages.
    pub pages: u32,
}

impl HostOp {
    /// The logical pages this request touches.
    #[inline]
    pub fn lpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.lpn..self.lpn + self.pages as u64
    }
}

/// Writes one event field into its JSONL object, encoded by its type.
trait TraceField {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj;
}

impl TraceField for u64 {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.u64(key, *self)
    }
}

impl TraceField for u32 {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.u64(key, u64::from(*self))
    }
}

impl TraceField for bool {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.bool(key, *self)
    }
}

impl TraceField for &'static str {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.str(key, self)
    }
}

impl TraceField for String {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.str(key, self)
    }
}

impl TraceField for HostOpKind {
    fn put(&self, key: &'static str, o: JsonObj) -> JsonObj {
        o.str(key, self.as_str())
    }
}

/// A waterfall writes its nonzero phases, each under the phase's label.
impl TraceField for PhaseNs {
    fn put(&self, _key: &'static str, o: JsonObj) -> JsonObj {
        self.iter()
            .filter(|&(_, ns)| ns > 0)
            .fold(o, |o, (phase, ns)| o.u64(phase.label(), ns))
    }
}

/// Declares [`TraceEvent`] from one table, each variant written once as
/// `Name = "kind", "class" { fields }`, and generates from it the enum,
/// [`TraceEvent::KINDS`] and the per-variant methods. The JSONL line of
/// every variant is `ev`, then each field in declaration order under its
/// own name; a variant without `t` does not compile.
macro_rules! trace_events {
    (
        $(#[$enum_attr:meta])*
        pub enum TraceEvent {
            $(
                $(#[$variant_attr:meta])*
                $name:ident = $kind:literal, $class:literal {
                    $( $(#[$field_attr:meta])* $field:ident: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$enum_attr])*
        pub enum TraceEvent {
            $(
                $(#[$variant_attr])*
                $name { $( $(#[$field_attr])* $field: $ty ),* },
            )*
        }

        impl TraceEvent {
            /// Every event kind (the `ev` field), in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// The simulated timestamp of the event.
            pub fn timestamp(&self) -> SimNs {
                match *self {
                    $(TraceEvent::$name { t, .. } => t,)*
                }
            }

            /// Stable event-kind label (the `ev` field of the JSONL encoding).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $kind,)*
                }
            }

            /// The event's filter class (see [`TRACE_CLASSES`]): `host` for host
            /// traffic and run markers, `ftl` for flash-level operations, `gc` /
            /// `refresh` for background maintenance, `fault` for injected faults
            /// and recovery, `span` for latency attribution waterfalls.
            pub fn class(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $class,)*
                }
            }

            /// Render as one JSONL line (no trailing newline). Field order is
            /// fixed; all values are integers or short strings, so the encoding is
            /// byte-deterministic.
            pub fn to_json_line(&self) -> String {
                let o = JsonObj::new().str("ev", self.kind());
                match self {
                    $(TraceEvent::$name { $($field),* } => {
                        $(let o = TraceField::put($field, stringify!($field), o);)*
                        o
                    })*
                }
                .finish()
            }
        }
    };
}

trace_events! {
    /// One simulation event. The `t` field is always the simulated timestamp
    /// (ns) at which the event occurred; the stream a run emits is
    /// monotonically non-decreasing in `t`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A labeled run began (written by the harness, not the simulator).
        RunStart = "run_start", "host" {
            /// Simulated time of the run start.
            t: SimNs,
            /// Harness-chosen label (workload × system).
            label: String,
        },
        /// A host request entered the device.
        HostArrival = "host_arrival", "host" {
            /// Arrival time.
            t: SimNs,
            /// Request index within the run.
            req: u64,
            /// Read or write.
            class: HostOpKind,
            /// First logical page.
            lpn: u64,
            /// Extent length in pages.
            pages: u32,
        },
        /// A host request completed (its last flash op finished).
        HostComplete = "host_complete", "host" {
            /// Completion time.
            t: SimNs,
            /// Request index within the run.
            req: u64,
            /// Read or write.
            class: HostOpKind,
            /// Response time (completion − arrival), ns.
            latency_ns: u64,
        },
        /// A host read page was translated and classified by the FTL.
        ReadIssued = "read_issued", "host" {
            /// Issue time.
            t: SimNs,
            /// Logical page.
            lpn: u64,
            /// Physical page.
            page: u64,
            /// Page type within its wordline (`lsb`/`csb`/`msb`/...).
            page_type: &'static str,
            /// Sensing operations under the wordline's current coding.
            senses: u32,
            /// Figure 4 validity scenario label.
            scenario: &'static str,
        },
        /// A page sense started on a die.
        FlashSense = "sense", "ftl" {
            /// Start time.
            t: SimNs,
            /// Executing die.
            die: u32,
            /// Transfer channel.
            channel: u32,
            /// Physical block.
            block: u64,
            /// Physical page.
            page: u64,
            /// Sensing operations charged.
            senses: u32,
            /// Extra read-retry attempts charged.
            retries: u32,
            /// Whether this is background (GC/refresh) traffic.
            background: bool,
            /// When the channel transfer window opened.
            bus_start: SimNs,
            /// When the array+transfer window closed (die and channel freed).
            bus_end: SimNs,
            /// End-to-end completion (after ECC decode and fault backoff).
            end: SimNs,
        },
        /// A page program started on a die.
        FlashProgram = "program", "ftl" {
            /// Start time.
            t: SimNs,
            /// Executing die.
            die: u32,
            /// Transfer channel.
            channel: u32,
            /// Physical block.
            block: u64,
            /// Physical page.
            page: u64,
            /// Whether this is background (GC/refresh) traffic.
            background: bool,
            /// When the channel transfer window opened.
            bus_start: SimNs,
            /// When the channel transfer window closed.
            bus_end: SimNs,
            /// End of ISPP programming (die program track freed).
            end: SimNs,
        },
        /// A block erase started on a die.
        FlashErase = "erase", "ftl" {
            /// Start time.
            t: SimNs,
            /// Executing die.
            die: u32,
            /// Erased block.
            block: u64,
            /// Erase completion (die program track freed).
            end: SimNs,
        },
        /// An IDA voltage adjustment of one wordline started on a die.
        VoltageAdjust = "voltage_adjust", "ftl" {
            /// Start time.
            t: SimNs,
            /// Executing die.
            die: u32,
            /// Adjusted block.
            block: u64,
            /// Adjustment completion (die program track freed).
            end: SimNs,
        },
        /// A host read needed extra sensing attempts (read retry), from the
        /// RBER-driven ladder and/or injected transient faults.
        ReadRetry = "read_retry", "ftl" {
            /// Start time of the retried read.
            t: SimNs,
            /// Executing die.
            die: u32,
            /// The host request the retried read served.
            req: u64,
            /// Extra attempts beyond the first.
            extra: u32,
            /// Array cost of one attempt, ns (`extra × attempt_ns` is the
            /// span's `retry` phase charge for this read).
            attempt_ns: SimNs,
        },
        /// A read exhausted its retry ladder; the data was recovered by the
        /// final heroic read and relocated to a fresh block (never silent
        /// corruption).
        EccUncorrectable = "ecc_uncorrectable", "fault" {
            /// Exhaustion time.
            t: SimNs,
            /// Logical page being read.
            lpn: u64,
            /// The at-risk physical page (retired until its block's erase).
            page: u64,
            /// Block holding the page.
            block: u64,
            /// Ladder attempts charged before exhaustion.
            attempts: u32,
        },
        /// A background patrol-scrub pass completed.
        ScrubPass = "scrub_pass", "refresh" {
            /// Pass time.
            t: SimNs,
            /// Blocks examined this pass.
            scanned: u32,
            /// At-risk pages relocated (disturb/retention thresholds).
            relocated: u32,
            /// Pages migrated by the wear-leveler this pass.
            wear_moves: u32,
        },
        /// The wear-leveler migrated cold data off the least-worn block.
        WearLevel = "wear_level", "refresh" {
            /// Migration time.
            t: SimNs,
            /// The cold block emptied and erased.
            block: u64,
            /// Valid pages migrated.
            moves: u32,
            /// Device wear spread (max − min erase count) that triggered it.
            spread: u32,
        },
        /// Garbage collection reclaimed one victim block.
        GcRun = "gc_run", "gc" {
            /// GC time.
            t: SimNs,
            /// Victim block.
            block: u64,
            /// Valid pages copied out.
            copies: u32,
        },
        /// A block went through data refresh.
        RefreshBlock = "refresh_block", "refresh" {
            /// Refresh time.
            t: SimNs,
            /// Refreshed block.
            block: u64,
            /// Pages migrated to new blocks.
            moves: u32,
            /// Wordlines voltage-adjusted (0 under baseline refresh).
            adjusted_wordlines: u32,
            /// Whether the IDA flow ran (vs. baseline move-all).
            ida: bool,
        },
        /// A block was converted to IDA coding.
        IdaConversion = "ida_conversion", "refresh" {
            /// Conversion time.
            t: SimNs,
            /// Converted block.
            block: u64,
            /// Wordlines now carrying a merged coding.
            wordlines: u32,
        },
        /// An injected program failure: the page is marked bad in OOB.
        FaultProgramFail = "fault_program_fail", "fault" {
            /// Failure time.
            t: SimNs,
            /// Block holding the failed page.
            block: u64,
            /// The failed physical page.
            page: u64,
        },
        /// Recovery from program failure: the write was re-issued to a fresh
        /// page after one or more failed attempts.
        WriteRedirect = "write_redirect", "fault" {
            /// Redirect time.
            t: SimNs,
            /// Logical page being written.
            lpn: u64,
            /// The page that finally took the data.
            page: u64,
            /// Failed attempts absorbed before success.
            attempts: u32,
        },
        /// An injected erase failure: the block can no longer be reclaimed.
        FaultEraseFail = "fault_erase_fail", "fault" {
            /// Failure time.
            t: SimNs,
            /// The block whose erase failed.
            block: u64,
        },
        /// A block was retired to the grown-bad list (erase failure or too
        /// many program failures), optionally replaced from the spare pool.
        BlockRetired = "block_retired", "fault" {
            /// Retirement time.
            t: SimNs,
            /// The retired block.
            block: u64,
            /// Why it was retired (`erase_failure` / `program_failures`).
            reason: &'static str,
            /// Whether a spare block was promoted to replace it.
            spare_used: bool,
        },
        /// An injected transient read fault on a host read.
        FaultReadTransient = "fault_read_transient", "fault" {
            /// Fault time.
            t: SimNs,
            /// Logical page being read.
            lpn: u64,
            /// Retry attempts the fault forced.
            attempts: u32,
        },
        /// Recovery from a transient read fault via bounded retry-with-backoff.
        ReadRecovered = "read_recovered", "fault" {
            /// Recovery time.
            t: SimNs,
            /// Logical page recovered.
            lpn: u64,
            /// Retry attempts it took.
            attempts: u32,
            /// Total controller backoff charged, ns.
            backoff_ns: u64,
        },
        /// An injected power loss: the persistent operation at `op_index` was
        /// lost and the device must run recovery.
        FaultPowerLoss = "fault_power_loss", "fault" {
            /// Crash time.
            t: SimNs,
            /// Persistent-operation index at which power failed.
            op_index: u64,
        },
        /// Post-crash recovery scan finished: volatile state was rebuilt from
        /// simulated OOB metadata.
        RecoveryScan = "recovery_scan", "fault" {
            /// Scan completion time.
            t: SimNs,
            /// L2P mappings rebuilt from OOB program records.
            rebuilt_mappings: u64,
            /// Refresh-interrupted wordlines rolled forward to fully merged.
            rolled_forward: u32,
            /// Pages conservatively relocated off rolled-forward wordlines.
            scrubbed: u32,
            /// Grown-bad blocks restored from OOB.
            bad_blocks: u32,
        },
        /// The device degraded to read-only mode (spares exhausted or
        /// relocation space gone); host writes are rejected from here on.
        ReadOnlyMode = "read_only_mode", "fault" {
            /// Degradation time.
            t: SimNs,
            /// Why writes were disabled.
            reason: &'static str,
        },
        /// A host write was rejected because the device is read-only.
        WriteRejected = "write_rejected", "fault" {
            /// Rejection time.
            t: SimNs,
            /// The rejected logical page.
            lpn: u64,
        },
        /// A completed host request's latency attribution waterfall: how its
        /// response time partitions into phases (conservation invariant: the
        /// phase values sum exactly to `total_ns`). Emitted only when spans
        /// are enabled on the simulator.
        Span = "span", "span" {
            /// Completion time (matches the request's `host_complete`).
            t: SimNs,
            /// Request index within the run.
            req: u64,
            /// Read or write.
            class: HostOpKind,
            /// Response time (completion − arrival), ns.
            total_ns: u64,
            /// Per-phase attribution; zero phases are omitted from the JSONL
            /// encoding.
            phases: PhaseNs,
        },
        /// The host frontend shed (dropped) an arriving request at admission:
        /// its tenant's bounded queue was full. Emitted at the frontend's
        /// dispatch instant, which may be later than the intended arrival
        /// carried in `at` (the stream stays monotone in `t`).
        HostShed = "host_shed", "host" {
            /// Emission time (monotone).
            t: SimNs,
            /// Shedding tenant index.
            tenant: u64,
            /// The request's intended arrival time.
            at: SimNs,
            /// First logical page of the dropped request.
            lpn: u64,
            /// Extent length in pages.
            pages: u32,
        },
        /// A tenant's end-of-run SLO verdict: observed read tail latency
        /// against its target.
        SloStatus = "slo_status", "host" {
            /// Emission time (end of the measured run).
            t: SimNs,
            /// Tenant index.
            tenant: u64,
            /// Observed read p99 latency, ns.
            p99_ns: u64,
            /// The tenant's p99 target, ns.
            target_ns: u64,
            /// Whether the target was met (`p99_ns <= target_ns`).
            met: bool,
        },
    }
}

/// A consumer of trace events.
pub trait TraceSink: std::fmt::Debug {
    /// Whether events should be constructed and delivered at all.
    /// Emission sites skip event construction when this is `false`,
    /// making the disabled path effectively free.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Flush any buffered output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file-backed sinks.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The zero-cost default sink: reports itself disabled, drops everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &TraceEvent) {}
}

/// An unbounded in-memory sink retaining every event — for tests.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// All recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render every event as JSONL (one line per event, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// The event classes a [`FilterSink`] can select (see
/// [`TraceEvent::class`]).
pub const TRACE_CLASSES: [&str; 6] = ["host", "ftl", "gc", "refresh", "fault", "span"];

/// Parse a `--trace-filter` specification: a comma-separated list of
/// class names from [`TRACE_CLASSES`]. Returns the allow mask, indexed
/// like `TRACE_CLASSES`.
///
/// # Errors
///
/// Returns a message naming the offending class when the spec contains
/// an unknown or empty class name.
pub fn parse_trace_filter(spec: &str) -> Result<[bool; TRACE_CLASSES.len()], String> {
    let mut allow = [false; TRACE_CLASSES.len()];
    let mut any = false;
    for raw in spec.split(',') {
        let name = raw.trim();
        let Some(i) = TRACE_CLASSES.iter().position(|c| *c == name) else {
            return Err(format!(
                "unknown trace class `{name}` (known classes: {})",
                TRACE_CLASSES.join(", ")
            ));
        };
        allow[i] = true;
        any = true;
    }
    if !any {
        return Err("empty trace filter".into());
    }
    Ok(allow)
}

/// A sink decorator that forwards only events whose
/// [`TraceEvent::class`] is in the allow list. `run_start` always passes
/// so a filtered trace still identifies its run.
#[derive(Debug)]
pub struct FilterSink<S> {
    allow: [bool; TRACE_CLASSES.len()],
    inner: S,
}

impl<S: TraceSink> FilterSink<S> {
    /// Wrap `inner`, keeping only the classes named in `spec`
    /// (comma-separated, e.g. `"host,span"`).
    ///
    /// # Errors
    ///
    /// Propagates [`parse_trace_filter`] errors for unknown classes.
    pub fn new(inner: S, spec: &str) -> Result<Self, String> {
        Ok(FilterSink {
            allow: parse_trace_filter(spec)?,
            inner,
        })
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for FilterSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: &TraceEvent) {
        let passes = matches!(ev, TraceEvent::RunStart { .. })
            || TRACE_CLASSES
                .iter()
                .position(|c| *c == ev.class())
                .is_some_and(|i| self.allow[i]);
        if passes {
            self.inner.record(ev);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A file sink writing one JSON object per line (JSONL).
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    lines: u64,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            lines: 0,
        })
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        // I/O errors on a best-effort trace must not abort the simulation;
        // they surface on the explicit flush instead.
        let _ = writeln!(self.out, "{}", ev.to_json_line());
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// A cloneable handle to a shared sink, so the simulator and the FTL it
/// owns can write interleaved events to one stream. The enabled flag is
/// cached at construction: `on()` is a branch on a local bool, and
/// emission sites construct events (and take the lock) only behind it.
/// The sink sits behind an `Arc<Mutex>` so a simulator can be `Send +
/// Sync`, as a warm state shared by a sweep's pool threads must be.
#[derive(Debug, Clone)]
pub struct SinkHandle {
    on: bool,
    inner: Arc<Mutex<dyn TraceSink + Send>>,
}

impl Default for SinkHandle {
    fn default() -> Self {
        Self::null()
    }
}

impl SinkHandle {
    /// The disabled handle (wraps [`NullSink`]).
    pub fn null() -> Self {
        Self::new(NullSink)
    }

    /// Wrap an owned sink.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        Self::from_shared(Arc::new(Mutex::new(sink)))
    }

    /// Wrap an externally shared sink (the caller keeps its typed `Arc` to
    /// inspect the sink afterwards — how tests read back a `VecSink`).
    pub fn from_shared(sink: Arc<Mutex<dyn TraceSink + Send>>) -> Self {
        let on = lock(&sink).enabled();
        SinkHandle { on, inner: sink }
    }

    /// Whether emission sites should construct events.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Deliver an event built by `f` if the sink is enabled. The closure
    /// is never called, and the lock never taken, on the disabled path.
    #[inline]
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if self.on {
            self.record(&f());
        }
    }

    /// Out of line: an emission site in a hot loop stays a branch and a call.
    #[inline(never)]
    fn record(&self, ev: &TraceEvent) {
        lock(&self.inner).record(ev);
    }

    /// Flush the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file-backed sinks.
    pub fn flush(&self) -> io::Result<()> {
        lock(&self.inner).flush()
    }
}

/// The sink behind `sink`. A panic while recording leaves no state a
/// later event could trip over, so a poisoned lock is taken as is.
fn lock<S: ?Sized>(sink: &Mutex<S>) -> MutexGuard<'_, S> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::span::Phase;

    fn ev(t: SimNs) -> TraceEvent {
        TraceEvent::FlashErase {
            t,
            die: 1,
            block: 9,
            end: t + 3_000,
        }
    }

    #[test]
    fn jsonl_encoding_is_stable() {
        let e = TraceEvent::HostArrival {
            t: 5,
            req: 2,
            class: HostOpKind::Read,
            lpn: 77,
            pages: 4,
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"ev":"host_arrival","t":5,"req":2,"class":"read","lpn":77,"pages":4}"#
        );
        assert_eq!(e.timestamp(), 5);
        assert_eq!(e.kind(), "host_arrival");
    }

    #[test]
    fn span_encoding_omits_zero_phases() {
        let mut phases = PhaseNs::zero();
        phases.add(Phase::QueueHost, 98_000);
        phases.add(Phase::Sense, 50_000);
        phases.add(Phase::Transfer, 48_000);
        phases.add(Phase::Ecc, 20_000);
        let e = TraceEvent::Span {
            t: 216_000,
            req: 3,
            class: HostOpKind::Read,
            total_ns: 216_000,
            phases,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"ev\":\"span\",\"t\":216000,\"req\":3,\"class\":\"read\",\"total_ns\":216000,\
             \"queue_host\":98000,\"sense\":50000,\"transfer\":48000,\"ecc\":20000}"
        );
        assert_eq!(e.kind(), "span");
        assert_eq!(e.class(), "span");
    }

    #[test]
    fn host_frontend_events_encode_stably() {
        let shed = TraceEvent::HostShed {
            t: 9_000,
            tenant: 1,
            at: 8_500,
            lpn: 42,
            pages: 2,
        };
        assert_eq!(
            shed.to_json_line(),
            r#"{"ev":"host_shed","t":9000,"tenant":1,"at":8500,"lpn":42,"pages":2}"#
        );
        assert_eq!(shed.kind(), "host_shed");
        assert_eq!(shed.class(), "host");
        let slo = TraceEvent::SloStatus {
            t: 50_000,
            tenant: 0,
            p99_ns: 1_900_000,
            target_ns: 2_000_000,
            met: true,
        };
        assert_eq!(
            slo.to_json_line(),
            "{\"ev\":\"slo_status\",\"t\":50000,\"tenant\":0,\"p99_ns\":1900000,\
             \"target_ns\":2000000,\"met\":true}"
        );
        assert_eq!(slo.kind(), "slo_status");
        assert_eq!(slo.class(), "host");
    }

    #[test]
    fn aging_events_encode_stably() {
        let retry = TraceEvent::ReadRetry {
            t: 7,
            die: 2,
            req: 5,
            extra: 3,
            attempt_ns: 50_000,
        };
        assert_eq!(
            retry.to_json_line(),
            r#"{"ev":"read_retry","t":7,"die":2,"req":5,"extra":3,"attempt_ns":50000}"#
        );
        assert_eq!(retry.class(), "ftl");
        let ecc = TraceEvent::EccUncorrectable {
            t: 8,
            lpn: 1,
            page: 2,
            block: 3,
            attempts: 5,
        };
        assert_eq!(
            ecc.to_json_line(),
            r#"{"ev":"ecc_uncorrectable","t":8,"lpn":1,"page":2,"block":3,"attempts":5}"#
        );
        assert_eq!(ecc.class(), "fault");
        let scrub = TraceEvent::ScrubPass {
            t: 9,
            scanned: 8,
            relocated: 2,
            wear_moves: 1,
        };
        assert_eq!(
            scrub.to_json_line(),
            r#"{"ev":"scrub_pass","t":9,"scanned":8,"relocated":2,"wear_moves":1}"#
        );
        assert_eq!(scrub.class(), "refresh");
        let wl = TraceEvent::WearLevel {
            t: 10,
            block: 4,
            moves: 6,
            spread: 17,
        };
        assert_eq!(
            wl.to_json_line(),
            r#"{"ev":"wear_level","t":10,"block":4,"moves":6,"spread":17}"#
        );
        assert_eq!(wl.class(), "refresh");
    }

    #[test]
    fn every_event_class_is_known() {
        assert_eq!(ev(1).class(), "ftl");
        assert_eq!(
            TraceEvent::RunStart {
                t: 0,
                label: "x".into()
            }
            .class(),
            "host"
        );
        assert_eq!(
            TraceEvent::GcRun {
                t: 0,
                block: 1,
                copies: 2
            }
            .class(),
            "gc"
        );
        assert_eq!(
            TraceEvent::IdaConversion {
                t: 0,
                block: 1,
                wordlines: 2
            }
            .class(),
            "refresh"
        );
        assert_eq!(TraceEvent::WriteRejected { t: 0, lpn: 1 }.class(), "fault");
    }

    #[test]
    fn filter_sink_keeps_selected_classes_and_run_start() {
        let mut f = FilterSink::new(VecSink::new(), "gc, span").unwrap();
        f.record(&TraceEvent::RunStart {
            t: 0,
            label: "r".into(),
        });
        f.record(&ev(1)); // ftl: dropped
        f.record(&TraceEvent::GcRun {
            t: 2,
            block: 1,
            copies: 0,
        });
        f.record(&TraceEvent::HostArrival {
            t: 3,
            req: 0,
            class: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }); // host: dropped
        let kinds: Vec<&str> = f.inner().events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["run_start", "gc_run"]);
    }

    #[test]
    fn filter_rejects_unknown_and_empty_classes() {
        let err = parse_trace_filter("host,bogus").unwrap_err();
        assert!(err.contains("unknown trace class `bogus`"), "{err}");
        assert!(err.contains("host, ftl, gc, refresh, fault, span"), "{err}");
        assert!(parse_trace_filter("").is_err());
        assert!(parse_trace_filter("host").is_ok());
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        let h = SinkHandle::null();
        assert!(!h.on());
        // The closure must not run on the disabled path.
        h.emit_with(|| unreachable!("disabled sink constructed an event"));
    }

    #[test]
    fn vec_sink_records_everything_in_order() {
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let h = SinkHandle::from_shared(sink.clone());
        assert!(h.on());
        for t in [1, 2, 3] {
            h.emit_with(|| ev(t));
        }
        assert_eq!(sink.lock().unwrap().events.len(), 3);
        let jsonl = sink.lock().unwrap().to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.starts_with(r#"{"ev":"erase","t":1"#));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("ida_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let mut s = JsonlSink::create(&path).unwrap();
            for t in 0..5 {
                s.record(&ev(t));
            }
            assert_eq!(s.lines(), 5);
            s.flush().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 5);
        std::fs::remove_file(&path).unwrap();
    }
}
