//! `ida-sweep` — deterministic parallel experiment orchestration.
//!
//! The paper's evaluation is a large grid: Figure 8 alone is 11 workloads
//! × 9 error rates (plus a baseline per workload), Figure 9 adds a ΔtR
//! axis, and the full suite chains a dozen experiments. This crate turns
//! that grid into a typed job model and runs it on a worker pool without
//! giving up the workspace's core guarantee: **a fixed spec produces
//! byte-identical aggregated output no matter how many workers run it, or
//! how often it was killed and resumed along the way.**
//!
//! The pieces:
//!
//! - [`cell`]: a [`cell::Cell`] is one experiment point (workload ×
//!   system × params × replicate) with a stable, human-readable ID and a
//!   per-cell [`ida_obs::rng::Rng64`] stream seed derived from that ID —
//!   randomness is a function of *what* the cell is, never of *when* or
//!   *where* it ran.
//! - [`spec`]: [`spec::SweepSpec`] describes the grid axes and expands
//!   them into cells in a fixed nesting order.
//! - [`pool`]: the one lease queue every sweep runs on (journal restore,
//!   claim, bounded front-of-queue retry, settle, the journal writer),
//!   and [`pool::run_cells`], N `std::thread` workers over it. A
//!   panicking cell becomes a per-cell error record instead of taking
//!   down the run.
//! - [`journal`]: a JSONL checkpoint journal — one appended record per
//!   completed cell. On restart, completed cells are skipped and their
//!   cached payloads reused; a torn final line (killed mid-write) is
//!   ignored.
//! - [`agg`]: deterministic aggregation — results merge in cell order,
//!   so an N-worker (or resumed) run emits the same bytes as a serial
//!   fresh run.
//! - [`jsonv`]: the minimal JSON reader the journal loader uses, kept
//!   dependency-free like the rest of the workspace.
//! - [`warm`]: a keyed, single-flight cache of frozen warm simulator
//!   states, so cells that share a warm-up phase (or just its prefix) run
//!   it once and fork.
//! - [`net`]: the distributed fabric — a TCP coordinator ([`net::serve`])
//!   and worker loop ([`net::run_worker`]) speaking frame-sealed
//!   messages over the same lease queue. A claim leases every queued
//!   cell of one workload, so each worker plans and forks its own warm
//!   cache and no warm state crosses the wire; a lost connection costs the
//!   cell it was running one attempt. The aggregate stays byte-identical
//!   to a local serial run for any worker population, and the two
//!   backends' journals are interchangeable.

pub mod agg;
pub mod cell;
pub mod journal;
pub mod jsonv;
pub mod net;
pub mod pool;
pub mod spec;
pub mod warm;

pub use agg::SweepOutcome;
pub use cell::{derive_stream_seed, Cell};
pub use journal::{JournalRecord, JournalWriter};
pub use net::{run_worker, serve, WorkerReport, PROTO_VERSION};
pub use pool::{pending_cells, run_cells, CellOutcome, CellStatus, SweepConfig};
pub use spec::SweepSpec;
pub use warm::{WarmCache, WarmMemory, WarmStats, WarmTier};
