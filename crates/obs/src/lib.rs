//! Observability for the IDA-coding simulation stack.
//!
//! Three pillars, all dependency-free so the offline tier-1 build stays
//! green:
//!
//! - **structured event tracing** ([`trace`]): typed [`trace::TraceEvent`]s
//!   carrying the simulated timestamp, flowing through a pluggable
//!   [`trace::TraceSink`] (a zero-cost null sink and a JSONL file sink).
//!   A fixed-seed run produces a byte-identical trace.
//! - **streaming metrics** ([`hist`], [`gauge`]): a fixed-memory
//!   log-bucketed histogram for latency percentiles without keeping every
//!   sample, and time-series gauges sampled on a sim-time interval.
//! - **run reporting** ([`json`], [`progress`]): a minimal deterministic
//!   JSON writer used by `Report::to_json` and the JSONL sink, plus a
//!   wall-clock progress heartbeat for long experiment runs.
//!
//! The crate also hosts the workspace's deterministic RNG ([`rng`]):
//! reproducible seeded randomness is what makes byte-identical traces
//! possible, and keeping it here (instead of the external `rand` crate)
//! lets every other crate build offline. Likewise [`trace::HostOp`], the
//! host request that traces carry and the simulator replays, lives here
//! because `ida-workloads` and `ida-ssd` both depend on this crate.

pub mod fabric;
pub mod gauge;
pub mod hist;
pub mod json;
pub mod progress;
pub mod rng;
pub mod span;
pub mod trace;

pub use fabric::FabricEvent;
pub use gauge::{GaugePoint, GaugeSeries, GaugeSet};
pub use hist::LogHistogram;
pub use progress::Progress;
pub use rng::Rng64;
pub use span::{Phase, PhaseNs, PhaseStats, ALL_PHASES, PHASE_COUNT, QUEUE_CLASSES};
pub use trace::{
    FilterSink, HostOp, HostOpKind, JsonlSink, NullSink, SinkHandle, TraceEvent, TraceSink, VecSink,
};
