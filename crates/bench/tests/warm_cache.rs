//! The warm-cache sweep invariant: a grid run, which shares warm-ups
//! through the warm-state cache, must produce byte-identical aggregated
//! output to running every cell unshared — at any worker count — while
//! executing strictly fewer warm-ups than cells, and fewer prefixes than
//! warm-ups.

use ida_bench::runner::ExperimentScale;
use ida_bench::sweep::{builtin_grid, run_cell_cached, run_grid, warm_id, warm_seed_for};
use ida_sweep::{SweepConfig, SweepOutcome, SweepSpec, WarmCache};
use std::collections::HashSet;

/// A faults grid small enough for a test: one workload, both systems,
/// every fault level (including `off` and the power-loss-scheduling
/// `high`).
fn mini_faults_grid() -> SweepSpec {
    SweepSpec::new(
        "faults",
        vec!["proj_3".into()],
        vec!["Baseline".into(), "IDA-E20".into()],
    )
    .with_axis(
        "faults",
        vec!["off".into(), "low".into(), "mid".into(), "high".into()],
    )
}

/// A fig8 grid small enough for a test: one workload, four system
/// columns that share nothing but their warm-up prefix.
fn mini_fig8_grid() -> SweepSpec {
    SweepSpec::new(
        "fig8",
        vec!["proj_3".into()],
        vec![
            "Baseline".into(),
            "IDA-E0".into(),
            "IDA-E20".into(),
            "IDA-E80".into(),
        ],
    )
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale::smoke().with_requests(400)
}

/// The reference a grid run must match: every cell warmed up on its own,
/// serially, with no cache.
fn unshared(spec: &SweepSpec, scale: &ExperimentScale) -> SweepOutcome {
    let outcomes =
        ida_sweep::run_cells(&spec.name, &spec.cells(), &SweepConfig::serial(), |cell| {
            run_cell_cached(cell, scale, None)
        })
        .expect("a sweep without a journal does no I/O");
    SweepOutcome {
        sweep: spec.name.clone(),
        outcomes,
    }
}

#[test]
fn warm_cache_is_invisible_in_the_aggregate_and_skips_warmups() {
    let spec = mini_faults_grid();
    let scale = tiny_scale();

    let off = unshared(&spec, &scale);
    assert_eq!(off.failed_count(), 0, "unshared cells failed");

    let on_cfg = SweepConfig::serial().with_warm_cache();
    let on = run_grid(&spec, &scale, &on_cfg).expect("cache-on run");
    assert_eq!(on.failed_count(), 0, "cache-on cells failed");

    assert_eq!(
        off.aggregate_json(),
        on.aggregate_json(),
        "warm cache changed sweep output"
    );

    // 8 cells, but only 2 warm identities (workload × system): the fault
    // axis is armed after warm-up and shares the snapshot.
    let cache = on_cfg.warm_cache().unwrap();
    let stats = cache.stats();
    assert_eq!(
        stats.misses, 2,
        "expected one warm-up per (workload, system)"
    );
    assert_eq!(stats.total_hits(), 6, "siblings must fork, not re-warm");
    // Both systems build on one prefix: built once, forked once.
    assert_eq!(cache.prefix_stats().misses, 1);
    assert_eq!(cache.prefix_stats().total_hits(), 1);
    assert_eq!(
        cache.memory().held_bytes,
        0,
        "every image had its last fork"
    );

    // Parallel cache-on agrees too: single-flight keeps concurrent
    // builders from racing, and forked state is scheduling-independent.
    let par_cfg = SweepConfig::serial().with_jobs(4).with_warm_cache();
    let par = run_grid(&spec, &scale, &par_cfg).expect("parallel cache-on run");
    assert_eq!(off.aggregate_json(), par.aggregate_json());
    let par_cache = par_cfg.warm_cache().unwrap();
    assert_eq!(
        par_cache.stats().misses,
        2,
        "single-flight must not duplicate warm-ups"
    );
    assert_eq!(par_cache.prefix_stats().misses, 1);
}

/// What a fig8-shaped run must leave behind: one prefix build forked by
/// every other column, one live warm-up per cell, no full image ever
/// captured, nothing held at the end.
fn assert_fig8_cache_shape(cache: &WarmCache) {
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.total_hits()), (4, 0));
    let prefix = cache.prefix_stats();
    assert_eq!((prefix.misses, prefix.total_hits()), (1, 3));
    let memory = cache.memory();
    assert_eq!(memory.full_captures, 0, "no column forks another's state");
    assert_eq!(memory.prefix_captures, 1);
    assert_eq!(
        memory.held_bytes, 0,
        "the prefix leaves after its last fork"
    );
    assert!(memory.peak_bytes > 0);
}

#[test]
fn fig8_columns_fork_one_prefix_and_capture_no_full_image() {
    let spec = mini_fig8_grid();
    let scale = tiny_scale();
    let off = unshared(&spec, &scale);
    assert_eq!(off.failed_count(), 0, "unshared cells failed");
    for jobs in [1, 4] {
        let cfg = SweepConfig::serial().with_jobs(jobs).with_warm_cache();
        let on = run_grid(&spec, &scale, &cfg).expect("cache-on run");
        assert_eq!(
            off.aggregate_json(),
            on.aggregate_json(),
            "warm cache changed fig8 output at jobs={jobs}"
        );
        assert_fig8_cache_shape(cfg.warm_cache().unwrap());
    }
}

#[test]
fn warm_identity_strips_exactly_the_post_warmup_axes() {
    let spec = mini_faults_grid();
    let cells = spec.cells();
    let warm_ids: HashSet<String> = cells.iter().map(warm_id).collect();
    assert_eq!(
        warm_ids.len(),
        2,
        "faults axis must not split warm identity"
    );
    for cell in &cells {
        assert!(!warm_id(cell).contains("faults="));
        // Same warm identity ⇒ same warm seed; the fault level never
        // perturbs the warm-up stream.
        let sibling = cells
            .iter()
            .find(|c| c.system == cell.system && c.id() != cell.id())
            .unwrap();
        assert_eq!(warm_seed_for(cell), warm_seed_for(sibling));
    }
    // The sensitivity axes (dtr_us, phase) stay in the identity: their
    // cells share a warm-up prefix, not a warm seed.
    let fig9 = SweepSpec::new("fig9", vec!["proj_3".into()], vec!["Baseline".into()])
        .with_axis("dtr_us", vec!["30".into(), "70".into()]);
    let ids: HashSet<String> = fig9.cells().iter().map(warm_id).collect();
    assert_eq!(ids.len(), 2, "dtr_us must stay in the warm identity");
}

/// The full `faults`, `fig8`, `fig9` and `fig11` smoke grids at 800
/// requests, run unshared and through `run_grid` on two workers,
/// aggregate to the same bytes. fig9's ΔtR and fig11's phase columns
/// re-arm the timing and retry model on a forked prefix, so a fork that
/// kept stale derived state fails here. Slow in a debug build: run it
/// with `cargo test --release -p ida-bench --test warm_cache -- --ignored`.
#[test]
#[ignore = "full smoke grids; run in release with --ignored"]
fn full_smoke_grids_match_their_unshared_runs() {
    let scale = ExperimentScale::smoke().with_requests(800);
    for name in ["faults", "fig8", "fig9", "fig11"] {
        let spec = builtin_grid(name).expect("built-in grid");
        let off = unshared(&spec, &scale);
        assert_eq!(off.failed_count(), 0, "{name}: unshared cells failed");
        let on = run_grid(&spec, &scale, &SweepConfig::serial().with_jobs(2)).expect("grid run");
        assert_eq!(
            off.aggregate_json(),
            on.aggregate_json(),
            "{name}: the shared run differs from the unshared one"
        );
    }
}
