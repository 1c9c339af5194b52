//! Experiment harness for the IDA-coding reproduction.
//!
//! Every figure and table of the paper's evaluation that runs the
//! simulator is a built-in [`sweep`] grid, run by `idasim sweep <grid>` on
//! the `ida-sweep` orchestration engine (parallel workers,
//! checkpoint/resume journals, per-cell failure isolation, aggregated
//! output byte-identical to a serial run) and rendered from its aggregate
//! with the paper's numbers alongside:
//!
//! | grid | reproduces |
//! |---|---|
//! | `fig4` | Figure 4 — read breakdown by page type/validity |
//! | `table4` | Table IV — refresh overhead accounting |
//! | `table5` | Table V — MLC device |
//! | `fig6` | Figure 6 + §V-G — QLC merge and end-to-end run |
//! | `fig8` | Figure 8 — response time vs adjustment error rate |
//! | `fig9` | Figure 9 — ΔtR sensitivity |
//! | `fig10` | Figure 10 — device throughput |
//! | `fig11` | Figure 11 — early vs late lifetime (read retry) |
//! | `blocks` | §III-C — in-use blocks / GC impact |
//! | `ablation` | §III-B 2/3/2 TLC coding and §III-C LSB placement |
//!
//! Table III needs no simulation: `idasim list` prints it. The [`runner`]
//! module owns the warm-up → measure protocol shared by every grid;
//! [`blocks`] holds §III-C's own warm-up; [`table`] renders aligned text
//! tables.

pub mod analyze;
pub mod blocks;
pub mod load;
pub mod runner;
pub mod soak;
pub mod sweep;
pub mod table;

pub use runner::{ExperimentScale, ReplayMode, SystemUnderTest};
