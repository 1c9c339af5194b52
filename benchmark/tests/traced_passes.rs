//! The traced passes re-compose the simulator's public calls; their
//! simulated outputs must stay byte-identical to the plain calls they
//! stand in for.

use ida_bench::runner::ExperimentScale;
use ida_bench::sweep::run_grid;
use ida_sweep::SweepConfig;
use idabench::metrics::Workload;
use idabench::span::Tracer;
use idabench::suite::{grid_spec, run_pass, traced_grid, Sizes};

fn tiny() -> Sizes {
    Sizes {
        grid_workloads: 2,
        grid_requests: 300,
        replay_requests: 3_000,
        load_requests: 3_000,
        setup_repeats: 1,
    }
}

fn assert_traced_grid_matches(workload: Workload) {
    let spec = grid_spec(workload, 1, &tiny());
    let scale = ExperimentScale::smoke().with_requests(tiny().grid_requests);
    // A fresh cache per run, so the traced run builds its own warm-ups.
    let config = |cached: bool| {
        let cfg = SweepConfig::serial();
        if cached {
            cfg.with_warm_cache()
        } else {
            cfg
        }
    };
    for cached in [false, true] {
        let plain = run_grid(&spec, &scale, &config(cached)).expect("plain grid");
        let tr = Tracer::new(workload.name());
        let traced = traced_grid(&spec, &scale, &config(cached), &tr);
        assert_eq!(traced.failed_count(), 0);
        assert_eq!(
            plain.aggregate_json(),
            traced.aggregate_json(),
            "{} traced aggregate differs (cache {cached})",
            workload.name()
        );
        let cells = tr.spans().iter().filter(|s| s.name == "bench.cell").count();
        assert_eq!(cells, spec.len(), "one bench.cell span per cell");
    }
}

#[test]
fn traced_fig8_subgrid_equals_run_grid_with_cache_on_and_off() {
    assert_traced_grid_matches(Workload::Fig8Grid);
}

#[test]
fn traced_faults_subgrid_equals_run_grid_with_cache_on_and_off() {
    assert_traced_grid_matches(Workload::FaultsGrid);
}

#[test]
fn traced_passes_reproduce_plain_digests_and_split_their_wall_time() {
    for workload in Workload::ALL {
        let (plain, _) = run_pass(workload, 2, &tiny(), false);
        let (traced, spans) = run_pass(workload, 2, &tiny(), true);
        for pass in [&plain, &traced] {
            assert!(pass.checks.iter().all(|c| c.ok), "{:?}", pass.checks);
        }
        assert_eq!(
            plain.digest,
            traced.digest,
            "{} decomposition stale",
            workload.name()
        );
        assert!(!spans.is_empty());
        for name in [
            "ssd.replay_ms",
            "ftl.warm_write_ms",
            "bench.warm_up_ms",
            "obs.span_ms",
        ] {
            assert!(
                traced.get(name).is_some(),
                "{} lacks {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn the_workload_seed_moves_the_traces_but_not_fig8() {
    let digest = |w, seed| run_pass(w, seed, &tiny(), false).0.digest;
    assert_ne!(
        digest(Workload::ReplayRead, 1),
        digest(Workload::ReplayRead, 2)
    );
    assert_ne!(
        digest(Workload::FaultsGrid, 1),
        digest(Workload::FaultsGrid, 2)
    );
    // fig8 payloads are a pure function of cell identity.
    assert_eq!(digest(Workload::Fig8Grid, 1), digest(Workload::Fig8Grid, 2));
}
