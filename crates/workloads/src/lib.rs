//! Synthetic workloads for the IDA-coding reproduction.
//!
//! The paper evaluates on 11 read-intensive volumes of the MSR Cambridge
//! block-trace suite \[25\] (Table III) plus 9 further workloads grouped by
//! read ratio (Figure 4, right). The raw traces are not redistributable
//! offline, so this crate synthesizes traces matched to each workload's
//! *published characteristics*: request read ratio, mean read size, read
//! data ratio, footprint, access skew and update intensity — the
//! distributional properties the paper's results actually depend on.
//!
//! - [`trace`] — the page-aligned trace representation and CSV I/O;
//! - [`dist`] — the samplers (zipf ranks, exponential gaps, size mixes)
//!   built directly on `rand`;
//! - [`synth`] — the trace generator;
//! - [`suite`] — presets for the 11 paper workloads and the 9 extra
//!   read-ratio-binned workloads;
//! - [`stats`] — trace characterization (regenerates Table III columns).
//!
//! # Example
//!
//! ```
//! use ida_workloads::suite;
//!
//! let preset = suite::paper_workload("proj_1").expect("known workload");
//! let trace = preset.generate(64 * 1024 /* footprint pages */, 2_000 /* requests */);
//! let stats = ida_workloads::stats::characterize(&trace);
//! assert!((stats.read_ratio - 0.894).abs() < 0.05);
//! ```

pub mod dist;
pub mod msr;
pub mod stats;
pub mod suite;
pub mod synth;
pub mod trace;

pub use stats::WorkloadStats;
pub use synth::WorkloadSpec;
pub use trace::{HostOp, HostOpKind, Trace};
