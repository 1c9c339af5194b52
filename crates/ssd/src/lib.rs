//! Event-driven SSD simulator.
//!
//! This crate plays the role DiskSim + the Microsoft SSD extension played
//! in the paper's evaluation: it takes a host I/O trace, drives the FTL
//! (`ida-ftl`), and charges every flash operation with realistic timing
//! and resource contention:
//!
//! - each **die** executes one array operation (sense / program / erase /
//!   voltage-adjust) at a time;
//! - each **channel** moves one page at a time between chip and controller;
//! - **ECC decode** adds a fixed pipeline latency to reads;
//! - **read-first scheduling**: host reads overtake queued writes and
//!   background (GC/refresh) work on the same die;
//! - the optional **read-retry model** (Section V-F) re-senses pages when
//!   ECC decoding fails, multiplying the array time.
//!
//! Host requests are split into page-sized flash operations; a request
//! completes when its last page completes, and its **response time**
//! (completion − arrival, queueing included) feeds the metrics that
//! reproduce the paper's figures.
//!
//! # Example
//!
//! ```
//! use ida_ssd::{HostOp, HostOpKind, Simulator, SsdConfig};
//!
//! let mut sim = Simulator::new(SsdConfig::tiny_test());
//! // Write four pages back-to-back, then read them.
//! let mut trace = Vec::new();
//! for i in 0..4 {
//!     trace.push(HostOp { at: 0, kind: HostOpKind::Write, lpn: i, pages: 1 });
//! }
//! for i in 0..4 {
//!     trace.push(HostOp { at: 50_000_000, kind: HostOpKind::Read, lpn: i, pages: 1 });
//! }
//! let report = sim.run(trace);
//! assert_eq!(report.reads.count, 4);
//! assert!(report.reads.mean() > 0.0);
//! ```

pub mod config;
pub mod event;
pub mod metrics;
pub mod request;
pub mod retry;
pub mod sim;
pub mod source;

pub use config::{ConfigError, SsdConfig, SsdConfigBuilder, WarmStage};
pub use metrics::{LatencyStats, ReadBreakdown, Report};
pub use request::{HostOp, HostOpKind, SlotTable};
pub use retry::RetryModel;
pub use sim::{SimError, Simulator};
pub use source::{ArrivalSource, ClosedLoopSource, ListSource, Pull, SourcedOp};
