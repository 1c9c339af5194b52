//! The worker pool: N `std::thread` workers over a shared work queue,
//! with panic isolation, bounded retry, checkpointing, and progress.
//!
//! Workers claim cells from an atomic cursor (cheapest possible shared
//! queue — the cell list is fixed up front), run the job closure under
//! `catch_unwind`, and send outcomes back over a channel. The
//! coordinating thread is the only writer of the journal and the only
//! source of progress ticks, so neither needs locking. Because every
//! cell's payload is a pure function of the cell (per-cell RNG streams,
//! deterministic simulator), *where* and *when* a cell runs never shows
//! up in its result — which is what lets [`crate::agg`] promise
//! byte-identical aggregates for any worker count.

use crate::cell::Cell;
use crate::journal::{self, JournalWriter};
use crate::warm::WarmCache;
use ida_obs::progress::Progress;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

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
    /// Shared warm-state snapshot cache (`None` = every cell runs its
    /// own warm-up). Job closures that support forking consult it via
    /// [`SweepConfig::warm_cache`]; because a cache hit restores
    /// byte-identical simulator state, enabling it never changes sweep
    /// output — only how often the warm-up work is repeated.
    pub warm: Option<Arc<WarmCache>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: default_jobs(),
            max_attempts: 2,
            journal: None,
            progress: false,
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

    /// Attach a warm-state snapshot cache, spilling under the journal
    /// directory when checkpointing is on (memory-only otherwise).
    pub fn with_warm_cache(mut self) -> Self {
        let spill = self
            .journal
            .as_deref()
            .map(crate::warm::spill_dir_for_journal);
        self.warm = Some(Arc::new(WarmCache::new(spill)));
        self
    }

    /// The warm cache, if one is attached.
    pub fn warm_cache(&self) -> Option<&WarmCache> {
        self.warm.as_deref()
    }

    /// The configuration selected by environment variables: `IDA_JOBS`
    /// for the worker count (validated — see [`parse_jobs`]) and
    /// `IDA_JOURNAL` for the checkpoint path.
    ///
    /// # Errors
    ///
    /// Returns a clear message when `IDA_JOBS` is zero or non-numeric.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("IDA_JOBS") {
            cfg.jobs = parse_jobs(&v)?;
        }
        if let Some(path) = std::env::var_os("IDA_JOURNAL") {
            cfg.journal = Some(PathBuf::from(path));
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
///
/// # Panics
///
/// Panics if a worker thread is lost without reporting (a bug in the
/// pool itself, not in the job closure).
pub fn run_cells<F>(
    sweep: &str,
    cells: &[Cell],
    cfg: &SweepConfig,
    f: F,
) -> std::io::Result<Vec<CellOutcome>>
where
    F: Fn(&Cell) -> String + Sync,
{
    let mut outcomes = restore(sweep, cells, cfg)?;
    let pending: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| i)
        .collect();

    let mut writer = match &cfg.journal {
        Some(path) => Some(JournalWriter::open(path, sweep)?),
        None => None,
    };
    let mut progress = if cfg.progress {
        Progress::new(&format!("sweep {sweep}"), pending.len() as u64).with_check_every(1)
    } else {
        Progress::disabled()
    };

    let jobs = cfg.jobs.clamp(1, pending.len().max(1));
    let max_attempts = cfg.max_attempts.max(1);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CellOutcome)>();

    let mut io_result = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let pending = &pending;
            let f = &f;
            scope.spawn(move || loop {
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(claim) else {
                    break;
                };
                let outcome = run_one(&cells[idx], max_attempts, f);
                if tx.send((idx, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Coordinator: journal and progress live on this thread only.
        for (idx, outcome) in rx {
            if let Some(w) = &mut writer {
                let id = outcome.cell.id();
                let written = match &outcome.status {
                    CellStatus::Done { payload } => w.record_ok(&id, outcome.attempts, payload),
                    CellStatus::Failed { error } => w.record_failed(&id, outcome.attempts, error),
                };
                if let Err(e) = written {
                    io_result = Err(e);
                }
            }
            outcomes[idx] = Some(outcome);
            progress.tick(1);
        }
    });
    progress.finish();
    io_result?;

    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every cell reported"))
        .collect())
}

/// The outcomes `cfg`'s journal already holds, per cell: finished cells
/// are restored, failed and missing ones (to be run) are `None`.
fn restore(
    sweep: &str,
    cells: &[Cell],
    cfg: &SweepConfig,
) -> std::io::Result<Vec<Option<CellOutcome>>> {
    let cached = match &cfg.journal {
        Some(path) => journal::load(path, sweep)?,
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
) -> std::io::Result<Vec<&'a Cell>> {
    let restored = restore(sweep, cells, cfg)?;
    Ok(cells
        .iter()
        .zip(restored)
        .filter(|(_, o)| o.is_none())
        .map(|(cell, _)| cell)
        .collect())
}

fn run_one<F>(cell: &Cell, max_attempts: u32, f: &F) -> CellOutcome
where
    F: Fn(&Cell) -> String + Sync,
{
    let mut attempts = 0;
    let status = loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| f(cell))) {
            Ok(payload) => break CellStatus::Done { payload },
            Err(panic) => {
                // `&*panic`: pass the payload itself, not the Box, to
                // the `dyn Any` downcast.
                let error = panic_message(&*panic);
                if attempts >= max_attempts {
                    break CellStatus::Failed { error };
                }
            }
        }
    };
    CellOutcome {
        cell: cell.clone(),
        status,
        attempts,
        cached: false,
    }
}

/// Render a `catch_unwind` payload the way failure records expect.
/// Shared with the fabric worker loop (`crate::net`) so a cell that
/// panics remotely produces the byte-identical error record a local
/// run would.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use ida_obs::json::JsonObj;
    use std::sync::atomic::AtomicU32;

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
