//! Repository-level tests for the host load/QoS layer (PR 7):
//! source-driven runs must reproduce the trace-driven path byte for
//! byte, capacity search must be deterministic, and IDA-E20 must
//! sustain strictly more offered load than Baseline on a read-heavy
//! workload at a fixed p99 read SLO.

use ida_bench::load::{load_metrics_json, run_capacity, run_load, LoadSpec};
use ida_bench::runner::{
    system_config, to_host_ops, warmed_simulator, ExperimentScale, ObsOptions, SystemUnderTest,
};
use ida_flash::timing::FlashTiming;
use ida_host::ArrivalSpec;
use ida_ssd::retry::RetryConfig;
use ida_ssd::ListSource;
use ida_sweep::derive_stream_seed;
use ida_workloads::suite::paper_workload;

fn smoke_scale(requests: usize) -> ExperimentScale {
    ExperimentScale::smoke().with_requests(requests)
}

/// The arrival-hook equivalence contract, full stack: a warmed simulator
/// driven by `run_source` over a pre-listed trace must produce a Report
/// byte-identical to the `run()` path on an identically warmed twin.
#[test]
fn sourced_replay_matches_the_run_path_after_warmup() {
    let preset = paper_workload("proj_3").expect("known workload");
    let scale = smoke_scale(400);
    for system in [
        SystemUnderTest::Baseline,
        SystemUnderTest::Ida { error_rate: 0.2 },
    ] {
        let cfg = system_config(
            system,
            scale.geometry,
            FlashTiming::paper_tlc(),
            RetryConfig::disabled(),
        );
        let (mut sim_a, trace_a) = warmed_simulator(&preset, cfg.clone(), &scale, None);
        let (mut sim_b, trace_b) = warmed_simulator(&preset, cfg, &scale, None);
        assert_eq!(
            trace_a.records, trace_b.records,
            "warm-up must be deterministic"
        );
        sim_a.set_spans(true);
        sim_b.set_spans(true);
        let via_run = sim_a.run(to_host_ops(&trace_a));
        let mut source = ListSource::new(to_host_ops(&trace_b)).expect("sorted trace");
        let via_source = sim_b
            .run_source(&mut source)
            .expect("listed source cannot stall");
        assert_eq!(
            via_run,
            via_source,
            "{}: run() and run_source(ListSource) diverged",
            system.label()
        );
        assert_eq!(sim_a.now(), sim_b.now(), "clocks diverged");
    }
}

/// Same seed, same cell ⇒ byte-identical load metrics.
#[test]
fn load_runs_reproduce_their_payload() {
    let preset = paper_workload("src1_0").expect("known workload");
    let scale = smoke_scale(150);
    let spec = LoadSpec::new(
        SystemUnderTest::Ida { error_rate: 0.2 },
        ArrivalSpec::Poisson,
        4_000,
        42,
    );
    let a = load_metrics_json(
        &run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run"),
    );
    let b = load_metrics_json(
        &run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run"),
    );
    assert_eq!(a, b);
    assert!(a.contains("\"shed\":"), "payload must carry shed: {a}");
    assert!(a.contains("\"slo_met\":"), "payload must carry slo: {a}");
}

/// Capacity search is a pure function of its inputs, and IDA-E20's max
/// sustainable rate strictly beats Baseline's on a read-heavy workload
/// (94.8 % reads) — the end-to-end claim of the host/QoS layer.
#[test]
fn capacity_search_is_deterministic_and_ida_sustains_more() {
    let preset = paper_workload("proj_3").expect("known workload");
    let scale = smoke_scale(300);
    // The smoke-scale knee of proj_3 sits near 17k IOPS for Baseline and
    // past 20k for IDA-E20 (probed via `idasim load proj_3 --iops ...`),
    // so [500, 30000] straddles both and 6 midpoints separate them.
    let (slo_ns, lo, hi, iters, seed) = (2_000_000, 500, 30_000, 6, 3);
    let capacity = |system| {
        let spec = LoadSpec {
            slo_p99_ns: slo_ns,
            ..LoadSpec::new(system, ArrivalSpec::Poisson, lo, seed)
        };
        run_capacity(&preset, &spec, &scale, lo, hi, iters).expect("capacity search")
    };
    let base = capacity(SystemUnderTest::Baseline);
    let ida = capacity(SystemUnderTest::Ida { error_rate: 0.2 });
    let base_again = capacity(SystemUnderTest::Baseline);
    assert_eq!(
        base.to_json(),
        base_again.to_json(),
        "capacity search must reproduce byte for byte"
    );
    for (result, want) in [
        (&base, 16_017_397_978_044_609_266),
        (&ida, 2_509_095_164_194_895_154),
    ] {
        assert_eq!(
            ida_snap::fnv1a(result.to_json().as_bytes()),
            want,
            "the capacity result moved"
        );
    }
    // The search forks one warm device per system; each probe must still
    // see exactly what a standalone load run at its rate sees.
    for (system, result) in [
        (SystemUnderTest::Baseline, &base),
        (SystemUnderTest::Ida { error_rate: 0.2 }, &ida),
    ] {
        for probe in &result.probes {
            let mut spec = LoadSpec::new(
                system,
                ArrivalSpec::Poisson,
                probe.iops,
                derive_stream_seed(seed, "probe"),
            );
            spec.slo_p99_ns = slo_ns;
            let alone = run_load(&preset, &spec, &scale, &ObsOptions::default()).expect("load run");
            assert_eq!(
                alone.probe_outcome(),
                probe.outcome,
                "{} probe at {} IOPS",
                system.label(),
                probe.iops
            );
        }
    }
    assert!(
        ida.max_iops > base.max_iops,
        "IDA-E20 must sustain strictly more load: ida {} vs baseline {} \
         (baseline probes: {:?}, ida probes: {:?})",
        ida.max_iops,
        base.max_iops,
        base.probes
            .iter()
            .map(|p| (p.iops, p.outcome.read_p99_ns, p.outcome.met))
            .collect::<Vec<_>>(),
        ida.probes
            .iter()
            .map(|p| (p.iops, p.outcome.read_p99_ns, p.outcome.met))
            .collect::<Vec<_>>(),
    );
}
