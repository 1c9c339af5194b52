//! Experiment harness for the IDA-coding reproduction.
//!
//! The grid-shaped figures of the paper's evaluation are built-in
//! [`sweep`] grids, run by `idasim sweep <grid>` on the `ida-sweep`
//! orchestration engine (parallel workers, checkpoint/resume journals,
//! per-cell failure isolation, aggregated output byte-identical to a
//! serial run):
//!
//! | grid | reproduces |
//! |---|---|
//! | `fig8` | Figure 8 — response time vs adjustment error rate |
//! | `fig9` | Figure 9 — ΔtR sensitivity |
//! | `fig10` | Figure 10 — device throughput |
//! | `fig11` | Figure 11 — early vs late lifetime (read retry) |
//!
//! The single-config experiments each have a binary in `src/bin/` that
//! prints the same rows or series the paper reports, with the paper's
//! numbers alongside:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3_workloads` | Table III — workload characteristics |
//! | `fig4_read_distribution` | Figure 4 — read breakdown by page type/validity |
//! | `table4_refresh_overhead` | Table IV — refresh overhead accounting |
//! | `table5_mlc` | Table V — MLC device |
//! | `fig6_qlc` | Figure 6 + §V-G — QLC merge and end-to-end run |
//! | `blocks_overhead` | §III-C — in-use blocks / GC impact |
//! | `ablation_lsb_placement` | §III-C — LSB placement of evicted pages |
//! | `ablation_coding_232` | §III-B — IDA on the 2/3/2 TLC coding |
//!
//! The [`runner`] module owns the warm-up → measure protocol shared by all
//! of them; [`table`] renders aligned text tables.

pub mod analyze;
pub mod load;
pub mod runner;
pub mod soak;
pub mod sweep;
pub mod table;

pub use runner::{ExperimentScale, ReplayMode, SystemUnderTest, WorkloadRun};
