//! The lease queue every sweep runs on, and the local worker pool that
//! drives it.
//!
//! `Leases` is the one place a cell is claimed, retried and settled,
//! for both backends: it restores finished cells from the checkpoint
//! journal, leases the rest one attempt at a time, puts a failed attempt
//! or a lost lease back at the *front* of the queue until `max_attempts`
//! is spent, and is the only journal writer and progress ticker.
//! [`run_cells`] drives it from N scoped threads, one cell per claim; the
//! fabric coordinator ([`crate::net::serve`]) drives it from its
//! connection handlers, one workload's queued cells per claim. Both run
//! a cell through `run_attempt`, so a panic becomes the same failure
//! record wherever it happens. Because every cell's payload is a
//! pure function of the cell (per-cell RNG streams, deterministic
//! simulator), *where* and *when* a cell runs never shows up in its
//! result — which is what lets [`crate::agg`] promise byte-identical
//! aggregates for any worker count or backend.

use crate::cell::Cell;
use crate::journal::{self, JournalWriter};
use crate::warm::WarmCache;
use ida_obs::progress::Progress;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// How a sweep runs: parallelism, retry budget, checkpointing, progress.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads (≥ 1).
    pub jobs: usize,
    /// Attempts per cell before it is reported as failed (≥ 1).
    pub max_attempts: u32,
    /// Checkpoint journal path (`None` = no checkpointing).
    pub journal: Option<PathBuf>,
    /// Report progress (with ETA) on stderr.
    pub progress: bool,
    /// The experiment setup every cell runs under (JSON by convention,
    /// opaque to the engine): the fabric hands it to each worker, and a
    /// journaled cell is reused only under the same setup.
    pub setup: String,
    /// The warm-state cache a grid runner plans and forks through, when
    /// the caller wants to read its counters afterwards (`None` = the
    /// runner brings a fresh one). Job closures consult it via
    /// [`SweepConfig::warm_cache`]; because a cache hit forks
    /// byte-identical simulator state, it never changes sweep output —
    /// only how often the warm-up work is repeated.
    pub warm: Option<Arc<WarmCache>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: default_jobs(),
            max_attempts: 2,
            journal: None,
            progress: false,
            setup: "{}".into(),
            warm: None,
        }
    }
}

impl SweepConfig {
    /// A serial configuration (one worker), for tests and baselines.
    pub fn serial() -> Self {
        SweepConfig {
            jobs: 1,
            ..Self::default()
        }
    }

    /// Set the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Set the journal path.
    pub fn with_journal(mut self, path: PathBuf) -> Self {
        self.journal = Some(path);
        self
    }

    /// Attach a fresh warm-state cache.
    pub fn with_warm_cache(mut self) -> Self {
        self.warm = Some(Arc::new(WarmCache::new()));
        self
    }

    /// The warm cache, if one is attached.
    pub fn warm_cache(&self) -> Option<&WarmCache> {
        self.warm.as_deref()
    }

    /// The configuration selected by `IDA_JOBS`, the worker count
    /// (validated — see [`parse_jobs`]).
    ///
    /// # Errors
    ///
    /// Returns a clear message when `IDA_JOBS` is zero or non-numeric.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("IDA_JOBS") {
            cfg.jobs = parse_jobs(&v)?;
        }
        Ok(cfg)
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse a worker count: a positive integer.
///
/// # Errors
///
/// Rejects `0` and non-numeric input with a human-readable message.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("--jobs must be at least 1 (got 0)".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "--jobs needs a positive integer, got {s:?} (e.g. --jobs 4)"
        )),
    }
}

/// Terminal state of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The job closure returned a payload (raw JSON text).
    Done {
        /// The cell's result payload, as rendered JSON.
        payload: String,
    },
    /// Every attempt panicked; the last panic message is recorded.
    Failed {
        /// The final panic message.
        error: String,
    },
}

/// One cell's outcome, fresh or restored from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: Cell,
    /// Success or failure.
    pub status: CellStatus,
    /// Attempts taken (1 = first try succeeded).
    pub attempts: u32,
    /// Whether the result was reused from the checkpoint journal.
    pub cached: bool,
}

impl CellOutcome {
    /// The payload, if the cell succeeded.
    pub fn payload(&self) -> Option<&str> {
        match &self.status {
            CellStatus::Done { payload } => Some(payload),
            CellStatus::Failed { .. } => None,
        }
    }
}

/// Run `f` over every cell, in parallel, with checkpoint/resume and
/// panic isolation. Outcomes come back in cell-index order regardless
/// of scheduling.
///
/// `f` must be deterministic in the cell (use [`Cell::rng`] for
/// randomness) for the byte-identical-aggregate guarantee to hold; a
/// panicking invocation is retried up to `cfg.max_attempts` times and
/// then reported as a [`CellStatus::Failed`] record without affecting
/// other cells or the pool.
///
/// # Errors
///
/// Fails only on journal I/O errors; job panics never surface as `Err`.
pub fn run_cells<F>(
    sweep: &str,
    cells: &[Cell],
    cfg: &SweepConfig,
    f: F,
) -> io::Result<Vec<CellOutcome>>
where
    F: Fn(&Cell) -> String + Sync,
{
    let leases = Leases::open(sweep, cells, cfg)?;
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.max(1).min(leases.remaining()) {
            scope.spawn(|| {
                while let Some((idx, _)) = leases.claim(false) {
                    leases.settle(idx, Some(run_attempt(|| f(&cells[idx]))));
                }
            });
        }
    });
    leases.finish()
}

/// The outcomes `cfg`'s journal already holds, per cell: finished cells
/// are restored, failed and missing ones (to be run) are `None`.
fn restore(sweep: &str, cells: &[Cell], cfg: &SweepConfig) -> io::Result<Vec<Option<CellOutcome>>> {
    let cached = match &cfg.journal {
        Some(path) => journal::load(path, sweep, &cfg.setup)?,
        None => Default::default(),
    };
    Ok(cells
        .iter()
        .map(|cell| {
            let rec = cached.get(&cell.id())?;
            let payload = rec.result.as_ref().ok()?;
            Some(CellOutcome {
                cell: cell.clone(),
                status: CellStatus::Done {
                    payload: payload.clone(),
                },
                attempts: rec.attempts,
                cached: true,
            })
        })
        .collect())
}

/// The cells [`run_cells`] would execute under `cfg`: every cell the
/// journal does not already hold a result for. Lets a caller plan work
/// (e.g. [`WarmCache::plan`]) before the run starts.
///
/// # Errors
///
/// Fails on journal I/O errors.
pub fn pending_cells<'a>(
    sweep: &str,
    cells: &'a [Cell],
    cfg: &SweepConfig,
) -> io::Result<Vec<&'a Cell>> {
    let restored = restore(sweep, cells, cfg)?;
    Ok(cells
        .iter()
        .zip(restored)
        .filter(|(_, o)| o.is_none())
        .map(|(cell, _)| cell)
        .collect())
}

/// Run one attempt of a cell's job, turning a panic into the error text
/// every failure record carries (`panicked: <message>`) — on a local
/// thread and on a fabric worker alike.
pub(crate) fn run_attempt(job: impl FnOnce() -> String) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|panic| {
        if let Some(s) = panic.downcast_ref::<&str>() {
            format!("panicked: {s}")
        } else if let Some(s) = panic.downcast_ref::<String>() {
            format!("panicked: {s}")
        } else {
            "panicked: (non-string payload)".into()
        }
    })
}

/// Why a lease-queue lock can fail: only settling runs under it, and the
/// job itself never does.
const POISONED: &str = "lease queue poisoned: a thread panicked while settling";

/// The mutable half of [`Leases`], behind its mutex.
struct Ledger {
    /// Claimable cell indices; retries go to the front.
    queue: VecDeque<usize>,
    /// Attempts consumed per cell (a lease counts when granted).
    attempts: Vec<u32>,
    /// Settled outcomes, cell-index order (journaled cells prefilled).
    outcomes: Vec<Option<CellOutcome>>,
    /// Cells not yet settled.
    remaining: usize,
    /// Checkpoint journal; settling is its only writer.
    journal: Option<JournalWriter>,
    /// First journal I/O error, surfaced once the sweep drains.
    journal_err: Option<io::Error>,
    progress: Progress,
}

/// The lease queue: which cells are claimable, how many attempts each
/// has used, and what has settled. Shared by reference between the
/// threads (or connection handlers) that claim from it.
pub(crate) struct Leases<'a> {
    /// The grid, in cell-index order.
    pub(crate) cells: &'a [Cell],
    max_attempts: u32,
    state: Mutex<Ledger>,
    wake: Condvar,
}

impl<'a> Leases<'a> {
    /// Restore `cells` from `cfg`'s journal, open it for appending, and
    /// queue every cell without a journaled result, in cell order.
    pub(crate) fn open(sweep: &str, cells: &'a [Cell], cfg: &SweepConfig) -> io::Result<Self> {
        let outcomes = restore(sweep, cells, cfg)?;
        let queue: VecDeque<usize> = (0..cells.len())
            .filter(|&i| outcomes[i].is_none())
            .collect();
        let journal = match &cfg.journal {
            Some(path) => Some(JournalWriter::open(path, sweep, &cfg.setup)?),
            None => None,
        };
        let progress = if cfg.progress {
            Progress::new(&format!("sweep {sweep}"), queue.len() as u64).with_check_every(1)
        } else {
            Progress::disabled()
        };
        Ok(Leases {
            cells,
            max_attempts: cfg.max_attempts.max(1),
            state: Mutex::new(Ledger {
                remaining: queue.len(),
                queue,
                attempts: vec![0; cells.len()],
                outcomes,
                journal,
                journal_err: None,
                progress,
            }),
            wake: Condvar::new(),
        })
    }

    /// Cells not yet settled.
    pub(crate) fn remaining(&self) -> usize {
        self.state.lock().expect(POISONED).remaining
    }

    /// Lease the front claimable cell, and with `whole_workload` every
    /// other queued cell of its workload too (the second part, in queue
    /// order; empty otherwise), charging each one attempt. Blocks while
    /// the queue is empty but a leased cell may still come back; `None`
    /// once every cell has settled. A one-cell claim allocates nothing: a
    /// small block held across a local cell's run splits the large blocks
    /// the cells reuse, which cost the fig8 smoke grid 2–4 MiB of RSS.
    pub(crate) fn claim(&self, whole_workload: bool) -> Option<(usize, Vec<usize>)> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if st.remaining == 0 {
                return None;
            }
            if let Some(front) = st.queue.pop_front() {
                let mut rest = Vec::new();
                if whole_workload {
                    let workload = &self.cells[front].workload;
                    st.queue.retain(|&idx| {
                        let same = self.cells[idx].workload == *workload;
                        if same {
                            rest.push(idx);
                        }
                        !same
                    });
                }
                for &idx in std::iter::once(&front).chain(&rest) {
                    st.attempts[idx] += 1;
                }
                return Some((front, rest));
            }
            st = self.wake.wait(st).expect(POISONED);
        }
    }

    /// Give back leased cells that never started: each gets its attempt
    /// back and returns to the front of the queue, in the given order.
    pub(crate) fn release(&self, lease: &[usize]) {
        let mut st = self.state.lock().expect(POISONED);
        for &idx in lease.iter().rev() {
            st.attempts[idx] -= 1;
            st.queue.push_front(idx);
        }
        self.wake.notify_all();
    }

    /// Settle the lease on cell `idx` with the attempt's result, or with
    /// `None` when its holder vanished before reporting. A success is
    /// recorded; a failure or lost lease goes back to the front of the
    /// queue until `max_attempts` is spent, then is recorded as the
    /// cell's failure. Returns the attempts spent when the cell was
    /// requeued.
    pub(crate) fn settle(&self, idx: usize, result: Option<Result<String, String>>) -> Option<u32> {
        let mut st = self.state.lock().expect(POISONED);
        let attempts = st.attempts[idx];
        let status = match result {
            Some(Ok(payload)) => CellStatus::Done { payload },
            _ if attempts < self.max_attempts => {
                st.queue.push_front(idx);
                self.wake.notify_all();
                return Some(attempts);
            }
            Some(Err(error)) => CellStatus::Failed { error },
            None => CellStatus::Failed {
                error: format!(
                    "worker disconnected mid-cell (attempt {attempts} of {})",
                    self.max_attempts
                ),
            },
        };
        let st = &mut *st;
        if let Some(w) = &mut st.journal {
            let id = self.cells[idx].id();
            let written = match &status {
                CellStatus::Done { payload } => w.record_ok(&id, attempts, payload),
                CellStatus::Failed { error } => w.record_failed(&id, attempts, error),
            };
            if let Err(e) = written {
                st.journal_err.get_or_insert(e);
            }
        }
        st.outcomes[idx] = Some(CellOutcome {
            cell: self.cells[idx].clone(),
            status,
            attempts,
            cached: false,
        });
        st.remaining -= 1;
        st.progress.tick(1);
        self.wake.notify_all();
        None
    }

    /// Block until every cell has settled.
    pub(crate) fn wait_settled(&self) {
        let mut st = self.state.lock().expect(POISONED);
        while st.remaining > 0 {
            st = self.wake.wait(st).expect(POISONED);
        }
    }

    /// The settled outcomes in cell-index order, or the first journal
    /// write error.
    pub(crate) fn finish(self) -> io::Result<Vec<CellOutcome>> {
        let st = self.state.into_inner().expect(POISONED);
        st.progress.finish();
        if let Some(e) = st.journal_err {
            return Err(e);
        }
        Ok(st
            .outcomes
            .into_iter()
            .map(|o| o.expect("every cell settled"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use ida_obs::json::JsonObj;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn grid(n_workloads: usize) -> Vec<Cell> {
        SweepSpec::new(
            "t",
            (0..n_workloads).map(|i| format!("w{i}")).collect(),
            vec!["a".into(), "b".into()],
        )
        .cells()
    }

    fn payload_of(cell: &Cell) -> String {
        let mut rng = cell.rng();
        JsonObj::new()
            .str("cell", &cell.id())
            .u64("draw", rng.next_u64())
            .finish()
    }

    #[test]
    fn outcomes_come_back_in_cell_order_for_any_worker_count() {
        let cells = grid(5);
        let serial = run_cells("t", &cells, &SweepConfig::serial(), payload_of).unwrap();
        for jobs in [2, 4, 8] {
            let cfg = SweepConfig::serial().with_jobs(jobs);
            let parallel = run_cells("t", &cells, &cfg, payload_of).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} diverged");
        }
        for (i, o) in serial.iter().enumerate() {
            assert_eq!(o.cell.index, i);
            assert_eq!(o.attempts, 1);
            assert!(!o.cached);
        }
    }

    #[test]
    fn a_panicking_cell_is_retried_then_reported() {
        let cells = grid(3);
        let cfg = SweepConfig::serial().with_jobs(4);
        let outcomes = run_cells("t", &cells, &cfg, |cell: &Cell| {
            assert!(cell.workload != "w1", "w1 always fails");
            payload_of(cell)
        })
        .unwrap();
        for o in &outcomes {
            if o.cell.workload == "w1" {
                assert_eq!(o.attempts, cfg.max_attempts);
                match &o.status {
                    CellStatus::Failed { error } => assert!(error.contains("w1 always fails")),
                    other => panic!("expected failure, got {other:?}"),
                }
            } else {
                assert_eq!(o.attempts, 1);
                assert!(o.payload().is_some());
            }
        }
    }

    #[test]
    fn a_flaky_cell_succeeds_on_retry() {
        let cells = grid(1);
        let flaked = AtomicU32::new(0);
        let outcomes = run_cells("t", &cells, &SweepConfig::serial(), |cell: &Cell| {
            if cell.system == "a" && flaked.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            payload_of(cell)
        })
        .unwrap();
        let a = outcomes.iter().find(|o| o.cell.system == "a").unwrap();
        assert_eq!(a.attempts, 2);
        assert!(a.payload().is_some());
    }

    #[test]
    fn parse_jobs_validates() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 16 "), Ok(16));
        assert!(parse_jobs("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs("four").unwrap_err().contains("positive integer"));
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("2.5").is_err());
    }

    #[test]
    fn journaled_cells_are_skipped_on_resume() {
        let dir = std::env::temp_dir().join(format!("ida-sweep-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let cells = grid(4);
        let cfg = SweepConfig::serial().with_journal(path.clone());

        let ran = AtomicU32::new(0);
        let count_and_run = |cell: &Cell| {
            ran.fetch_add(1, Ordering::SeqCst);
            payload_of(cell)
        };
        assert_eq!(pending_cells("t", &cells, &cfg).unwrap().len(), cells.len());
        let first = run_cells("t", &cells, &cfg, count_and_run).unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), cells.len() as u32);
        assert!(pending_cells("t", &cells, &cfg).unwrap().is_empty());

        ran.store(0, Ordering::SeqCst);
        let resumed = run_cells("t", &cells, &cfg, count_and_run).unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no cell should re-run");
        assert!(resumed.iter().all(|o| o.cached));
        let strip = |os: &[CellOutcome]| -> Vec<Option<String>> {
            os.iter().map(|o| o.payload().map(String::from)).collect()
        };
        assert_eq!(strip(&first), strip(&resumed));
        let _ = std::fs::remove_file(&path);
    }
}
