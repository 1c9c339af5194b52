//! `idabench` — the end-to-end and per-layer benchmark of the IDA coding
//! simulator.
//!
//! Four workloads ([`metrics::Workload`]) each run in a child process of
//! their own, single-threaded, as a closed loop with one caller: every
//! call into the simulator's crates returns before the next starts. What
//! is timed is always a call into a public function of those crates, made
//! from this package ([`suite`]). A traced pass records a span around
//! each call ([`span`]) and turns the spans into per-layer self times.
//!
//! The commands live in [`cli`]; `README.md` next to this package lists
//! the workloads, metrics, bounds and how to run, trace and compare.

pub mod cli;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod suite;
